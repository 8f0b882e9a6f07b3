"""The forked lane: the same streams as one process, and no child left behind.

The CPU count is forced by replacing lanes._cpu_count, so these tests
take the forked path on a one-CPU host too.
"""

import os
import threading

import pytest

from corelabel import lanes
from corelabel.doubling import generate_cu
from corelabel.enumeration import _iter_lattice_arrays
from corelabel.lanes import LaneError, lane_map


def use_cpus(monkeypatch, k):
    monkeypatch.setattr(lanes, "_cpu_count", lambda: k)


def refuse_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


def count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cu_ups(max_n):
    return [tuple(lat.poset.up) for lat in generate_cu(max_n)]


def test_census_stream_is_the_one_lane_stream(monkeypatch):
    use_cpus(monkeypatch, 1)
    refuse_fork(monkeypatch)
    one = list(_iter_lattice_arrays(10))
    monkeypatch.undo()
    # The n=9 (28 blocks) and n=10 (135 blocks) levels are forked.
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert list(_iter_lattice_arrays(10)) == one
    assert len(one) == 7372
    assert len(forks) == 2
    assert_no_child()


def test_generate_cu_is_the_one_lane_stream(monkeypatch):
    use_cpus(monkeypatch, 1)
    refuse_fork(monkeypatch)
    one = cu_ups(10)
    monkeypatch.undo()
    use_cpus(monkeypatch, 2)
    assert cu_ups(10) == one
    assert len(one) == 808
    assert_no_child()


def test_lane_map_keeps_list_order(monkeypatch):
    use_cpus(monkeypatch, 2)
    items = list(range(1000))
    assert list(lane_map(lambda x: (x, [x * x], b"%d" % x), items)) == [
        (x, [x * x], b"%d" % x) for x in items]
    assert_no_child()


def test_many_cpus_fork_one_lane_per_level(monkeypatch):
    use_cpus(monkeypatch, 64)
    forks = count_forks(monkeypatch)
    assert sum(1 for _ in _iter_lattice_arrays(10)) == 7372
    assert len(forks) == 2
    assert list(lane_map(abs, list(range(-5000, 0)))) == list(range(5000, 0, -1))
    assert len(forks) == 3
    assert_no_child()


def test_lanes_send_what_send_makes_of_a_result(monkeypatch):
    # The caller computes blocks 0, 3, 6, ... itself.
    use_cpus(monkeypatch, 2)
    items = list(range(400))
    got = list(lane_map(lambda x: (x, "kept"), items, lambda r: (r[0], None)))
    assert got == [(x, "kept" if x // lanes.BLOCK % 3 == 0 else None) for x in items]
    assert_no_child()


@pytest.mark.parametrize("stream, stop", [
    # Past the first class of the last level, which is forked.
    (lambda: _iter_lattice_arrays(10), 1400),
    (lambda: generate_cu(10), 400),
])
def test_closing_a_stream_mid_level_leaves_no_child(monkeypatch, stream, stop):
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    it = stream()
    for k, _ in enumerate(it):
        if k == stop:
            break
    assert forks
    it.close()
    assert_no_child()
    # An abandoned generator is reaped when it is dropped.
    it = stream()
    for k, _ in enumerate(it):
        if k == stop:
            break
    del it
    assert_no_child()


def test_an_exception_in_a_lane_reaches_the_caller(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def work(x):
        if os.getpid() != parent:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(LaneError, match=r"lane \(pid \d+\) failed on block 1") as err:
        list(lane_map(work, list(range(200))))
    assert "ValueError: bad item 8" in str(err.value)
    assert_no_child()


def test_a_lane_that_dies_is_named_with_its_exit_status(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def work(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(LaneError, match=r"lane \(pid \d+\) ended with exit "
                                        r"status 3 before sending block 1"):
        list(lane_map(work, list(range(200))))
    assert_no_child()


def test_a_result_that_cannot_cross_a_pipe_is_an_error(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(LaneError, match="ValueError"):
        list(lane_map(lambda x: object(), list(range(200))))
    assert_no_child()


def test_one_cpu_never_forks(monkeypatch):
    use_cpus(monkeypatch, 1)
    refuse_fork(monkeypatch)
    assert sum(1 for _ in _iter_lattice_arrays(9)) == 1378
    assert len(cu_ups(9)) == 274
    assert list(lane_map(abs, list(range(-500, 0)))) == list(range(500, 0, -1))


def test_short_lists_and_missing_fork_never_fork(monkeypatch):
    use_cpus(monkeypatch, 8)
    refuse_fork(monkeypatch)
    items = list(range(lanes.BLOCK * (lanes.MIN_FORK_BLOCKS - 1)))
    assert list(lane_map(abs, items)) == items
    monkeypatch.delattr(os, "fork")
    assert list(lane_map(abs, items * 4)) == items * 4


def test_a_live_thread_keeps_one_lane(monkeypatch):
    use_cpus(monkeypatch, 2)
    refuse_fork(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert sum(1 for _ in _iter_lattice_arrays(9)) == 1378
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
