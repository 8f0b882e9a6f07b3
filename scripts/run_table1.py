"""Run the lattice census row by row with timings.

The census is enumerated once; each row is printed as its size completes,
with the seconds that size took.

Usage: python scripts/run_table1.py [--max-n N] [--csv PATH]
"""

import argparse
import sys
import time

from corelabel.enumeration import HARD_BOUND, _survey


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=11)
    parser.add_argument("--csv", help="also write the rows to this file")
    args = parser.parse_args()
    if not 1 <= args.max_n <= HARD_BOUND:
        parser.error(f"--max-n must be between 1 and {HARD_BOUND}")

    print("  n         l       c      s      S    seconds")
    rows = []
    start = time.perf_counter()
    for row in _survey(args.max_n):
        now = time.perf_counter()
        elapsed, start = now - start, now
        rows.append(row)
        print(
            f"{row.n:3d} {row.lattices:9d} {row.congruence_uniform:7d} "
            f"{row.spherical_cu:6d} {row.spherical_clo_lattice:6d} "
            f"{elapsed:10.2f}"
        )
        sys.stdout.flush()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("n,l,c,s,S\n")
            for row in rows:
                fh.write(row.csv() + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
