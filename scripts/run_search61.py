"""Scan small closure operators for biclosed-set lattices that are spherical,
congruence-uniform, single-step, and still have a non-lattice core label order.

Usage: python scripts/run_search61.py [--max-m M] [--skip-single-step]
"""

import argparse
import sys
import time

from corelabel import search_problem_6_1, write_closure_text
from corelabel.biclosed import MAX_SEARCH_GROUND


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument(
        "--skip-single-step",
        action="store_true",
        help="drop the single-step filter (rediscovers the known four-point operator)",
    )
    args = parser.parse_args()
    if not 1 <= args.max_m <= MAX_SEARCH_GROUND:
        parser.error(f"--max-m must be between 1 and {MAX_SEARCH_GROUND}")

    total = 0
    for m in range(1, args.max_m + 1):
        start = time.perf_counter()
        hits = list(search_problem_6_1(m, require_single_step=not args.skip_single_step))
        elapsed = time.perf_counter() - start
        print(f"m={m}: {len(hits)} candidate(s) in {elapsed:.2f}s")
        for op in hits:
            total += 1
            print(write_closure_text(op), end="")
        sys.stdout.flush()
    if total == 0:
        print("no candidates: every scanned ground size is verified empty")
    return 0


if __name__ == "__main__":
    sys.exit(main())
