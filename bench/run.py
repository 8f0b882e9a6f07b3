"""Run one workload of the corelabel benchmark and print its result.

    python3 bench/run.py --workload census --seed 1 --seconds 35 --trace 0

The program is imported from the source tree next to this directory
(src/corelabel); the run stops with an error if it is not there.  Whole
rounds of the workload run, one call at a time, for about --seconds
(at least one round).  Every round's outputs are checked: the first
against the independent checks in checks.py, the others for being equal
to the first.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A traced run
alternates untraced and traced rounds, to report the tracing overhead,
and writes its spans to bench/out/.

Set-up, reported as setup_s, is the import of corelabel plus the making
of the workload's inputs.  It is repeated in the measuring process, with
a fresh import each time, until SETUP_REPEATS set-ups or SETUP_BUDGET_S
seconds, and setup_s is the median.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = HERE.parent / "src"
INIT = SRC / "corelabel" / "__init__.py"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0


def load_program():
    if not INIT.is_file():
        raise SystemExit(f"error: no corelabel source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import corelabel

    if Path(corelabel.__file__).resolve() != INIT.resolve():
        raise SystemExit(f"error: imported corelabel from {corelabel.__file__}, "
                         f"not from {SRC}")
    return corelabel


def set_up(args):
    """Import the program and make the workload's inputs, repeatedly;
    return the last workload and the time of every set-up."""
    times = []
    while len(times) < SETUP_REPEATS and sum(times) < SETUP_BUDGET_S:
        for name in [k for k in sys.modules if k.split(".")[0] == "corelabel"]:
            del sys.modules[name]
        t0 = perf_counter()
        workload = WORKLOADS[args.workload](load_program(), args.seed, args.size == "tiny")
        times.append(perf_counter() - t0)
    return workload, times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def verify(workload, rounds) -> list[str]:
    first = rounds[0].outputs
    if first is None:
        return ["the first round failed"]
    problems = workload.check(first)
    for k, r in enumerate(rounds[1:], start=2):
        if not r.same_as_first:
            problems.append(f"round {k} gave other outputs than round 1")
    return problems


def time_left(rounds, seconds: float, start: float) -> bool:
    """Start another round only if it should end by half a round past
    the deadline, so that a run lasts about --seconds."""
    if not rounds:
        return True
    typical = statistics.median(r.wall_s for r in rounds)
    return perf_counter() - start + typical / 2 < seconds


def run_round(workload, rounds: list) -> None:
    r = workload.run_round()
    if rounds:
        # Keep only the first round's outputs, so memory does not grow
        # with the number of rounds.
        r.same_as_first = r.outputs == rounds[0].outputs
        r.outputs = None
    rounds.append(r)


def run_rounds(workload, seconds: float, start: float) -> list:
    rounds = []
    while time_left(rounds, seconds, start):
        run_round(workload, rounds)
    return rounds


def end_to_end(rounds, setups: list[float]) -> dict:
    wall = statistics.median(r.wall_s for r in rounds)
    items = rounds[0].attempted
    # A round that failed as a whole timed no items; its wall time stands in.
    item_ms = [ms for r in rounds for ms in r.item_ms] or [r.wall_s * 1e3 for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "item_p50_ms": (percentile(item_ms, 0.50), "ms"),
        "item_p99_ms": (percentile(item_ms, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload, args, start: float):
    """Untraced and traced rounds in turn until the time is up, so that a
    change of host speed during the run touches both alike."""
    rounds, plain, snaps = [], [], []
    tracer = Tracer()
    while not snaps or time_left(rounds, args.seconds, start):
        run_round(workload, rounds)
        plain.append(rounds[-1].wall_s)
        tracer.reset()
        tracer.recording = not snaps
        uninstall = tracer.install()
        try:
            run_round(workload, rounds)
        finally:
            uninstall()
        snaps.append(tracer.snapshot(rounds[-1].wall_s))
    problems = []
    if any(s["counts"] != snaps[0]["counts"] for s in snaps):
        problems.append("per-layer counts differ between traced rounds")
    metrics = per_layer(snaps, statistics.median(plain))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "rounds": len(snaps), "metrics": metrics})
    return rounds, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every check on small inputs in seconds")
    args = parser.parse_args(argv)

    workload, setups = set_up(args)
    start = perf_counter()
    if args.trace:
        rounds, metrics, problems = traced(workload, args, start)
    else:
        rounds = run_rounds(workload, args.seconds, start)
        metrics = end_to_end(rounds, setups)
        problems = []
    problems += verify(workload, rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result) + "\n", encoding="utf-8")
    walls = " ".join(f"{r.wall_s:.3f}" for r in rounds)
    print(f"{args.workload}: rounds of {walls} s, "
          f"{'ok' if not problems else f'{len(problems)} check(s) failed'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
