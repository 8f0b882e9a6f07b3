"""Isomorph-free generation, with two blocks in three keyed in a forked lane.

classes() is the one generation driver of the census and of CU generation,
and the only copy of their dedupe policy: every child of a generation is
keyed, and the first new key in parent order stands for its class.

lane_map(work, items) yields work(x) for every x in items, in order.  The
items are cut into blocks of BLOCK.  When the process may run on more than
one CPU, one child process (the lane) is forked.  It computes blocks 1, 2,
4, 5, 7, 8, ... and sends every block's results back through a pipe as one
length-prefixed marshal frame, while the calling process computes blocks
0, 3, 6, ... itself; the caller takes the smaller share because it also
consumes every result.  The caller sees the results in list order
whichever process computed them, so a stream built on lane_map is the
same with or without the lane.  Results must therefore be marshal-able:
ints, bytes, strings, tuples and lists of them.

At most one lane is forked, however many CPUs there are: the split above
was measured on two CPUs only, and os.sched_getaffinity does not see a
cgroup CPU quota, so more lanes could oversubscribe a container.  A block
of the census or of CU generation takes a few milliseconds, about what a
fork costs, so the lane is forked only for a list of at least
MIN_FORK_BLOCKS blocks.  Small blocks keep each frame, and the caller's
copy of it, small.

No lane (the calling process alone, no fork) is used when the process may
run on one CPU only, when os.fork does not exist, when another thread is
alive (a forked child would inherit its locks but not the thread), or when
the list is too short.

The lane is killed and reaped when the stream ends, is closed early or
stops on an error.  It ends with os._exit, never by returning into the
caller's frames.  A lane that raises, or dies, makes the stream raise
LaneError in the caller naming the lane's pid.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Callable, Iterator

BLOCK = 8
MIN_FORK_BLOCKS = 8


class LaneError(RuntimeError):
    """The forked lane raised or died before sending all of its blocks."""


def _cpu_count() -> int:
    # CPUs this process may run on.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forks(nblocks: int) -> bool:
    # Whether a list of nblocks blocks is shared with a forked lane.
    if _cpu_count() < 2 or nblocks < MIN_FORK_BLOCKS or not hasattr(os, "fork"):
        return False
    import threading

    return threading.active_count() == 1


def classes(root, work: Callable, rebuild: Callable, depth: int) -> Iterator:
    """rebuild(root), then the arrays of one child per isomorphism class.

    work(state) lists (key, child, arrays) for each child of a state.  Each
    of depth generations is keyed through lane_map, and each class must lie
    in one generation only, so one generation's keys are all its dedupe
    reads.  The lane sends all but the arrays, so the caller builds
    rebuild(child) for each new class the lane keyed.
    """
    strip = lambda children: [(k, c, None) for k, c, _ in children]
    yield rebuild(root)
    generation = [root]
    for _ in range(depth):
        seen, nxt = set(), []
        for children in lane_map(work, generation, strip):
            for key, child, arrays in children:
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
                    yield arrays or rebuild(child)
        generation = nxt


def lane_map(work: Callable, items: list, send: Callable | None = None) -> Iterator:
    """work(x) for every x in items, in order; see the module docstring.

    For an item computed in the lane the caller gets send(work(x)) instead,
    when send is given: the lane can leave out what the caller can rebuild.
    """
    blocks = [items[k:k + BLOCK] for k in range(0, len(items), BLOCK)]
    if not _forks(len(blocks)):
        yield from map(work, items)
        return
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        # Out of processes: every block runs here instead.
        os.close(r)
        os.close(w)
        yield from map(work, items)
        return
    if pid == 0:
        _serve(w, r, work, send, [b for k, b in enumerate(blocks) if k % 3])
    os.close(w)
    reaped = False
    try:
        for k, block in enumerate(blocks):
            if not k % 3:
                yield from map(work, block)
                continue
            results = _receive(r, pid, k)
            if results is None:
                _, status = os.waitpid(pid, 0)
                reaped = True
                raise LaneError(
                    f"lane (pid {pid}) ended with exit status "
                    f"{os.waitstatus_to_exitcode(status)} before sending block {k}"
                )
            yield from results
    finally:
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(r)


def _serve(w: int, r: int, work: Callable, send: Callable | None,
           blocks: list[list]) -> None:
    # The body of the forked lane: send one frame per block, then exit.  It
    # never returns, so no frame of the caller runs in the child.
    status = 1
    try:
        os.close(r)
        try:
            for block in blocks:
                results = [work(x) for x in block]
                if send is not None:
                    results = [send(x) for x in results]
                _send(w, marshal.dumps(results))
            status = 0
        except BaseException:
            # Interrupts included: the lane reports what stopped it, and
            # the finally below ends the process either way.
            import traceback

            _send(w, traceback.format_exc().encode(), error=True)
    finally:
        os._exit(status)


def _send(fd: int, data: bytes, error: bool = False) -> None:
    # A frame is a signed 4-byte length and a payload; a negative length
    # marks the payload as the text of an error.
    size = -len(data) if error else len(data)
    view = memoryview(size.to_bytes(4, "little", signed=True) + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int, pid: int, k: int) -> list | None:
    # The results of block k from the lane's pipe; None when the pipe ends
    # before a whole frame.
    head = _read(fd, 4)
    size = int.from_bytes(head, "little", signed=True) if head else 0
    body = _read(fd, abs(size)) if size else None
    if body is None:
        return None
    if size < 0:
        raise LaneError(f"lane (pid {pid}) failed on block {k}:\n{body.decode()}")
    return marshal.loads(body)


def _read(fd: int, size: int) -> bytes | None:
    # Exactly size bytes, or None when the pipe ends first.
    chunks = []
    while size:
        data = os.read(fd, size)
        if not data:
            return None
        chunks.append(data)
        size -= len(data)
    return b"".join(chunks)
