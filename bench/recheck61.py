"""Re-check Problem 6.1 candidates without corelabel.

    PYTHONPATH=src python3 -m corelabel.cli search61 --m 5 --json \\
        | python3 bench/recheck61.py

Reads the JSON lines that `lattice search61 --json` prints.  For each
operator it re-derives, from the closure table alone, every property the
search filters on: the biclosed sets form a lattice; it is congruence-
uniform (the principal congruences of join- and of meet-irreducibles are
pairwise distinct); it is spherical (a CU lattice is semidistributive, so
this is a nonzero Mobius value); biclosed sets grow one element at a time;
and its core label order is not a lattice.  Covers are labelled by the
join-irreducible with the same principal congruence, not by perspectivity
as the program does.  Prints one line per operator and exits 1 unless
every operator is confirmed.
"""

from __future__ import annotations

import json
import sys

from checks import biclosed_sets, family_facts, single_step


def verdicts(m: int, table) -> dict:
    bic = sorted(biclosed_sets(m, table))
    facts = family_facts(bic)
    out = {"n": len(bic), "lattice": facts["lattice"]}
    if facts["lattice"]:
        cu = facts["cu"]
        out.update(cu=cu, spherical=facts["spherical"] if cu else None,
                   single_step=single_step(m, table),
                   clo_lattice=facts["clo_lattice"] if cu else None)
    return out


def main() -> int:
    confirmed = total = 0
    for line in sys.stdin:
        obj = json.loads(line)
        if "table" not in obj:
            continue
        total += 1
        v = verdicts(obj["m"], obj["table"])
        ok = (v["lattice"] and v["cu"] and v["spherical"] and v["single_step"]
              and v["clo_lattice"] is False)
        confirmed += ok
        print(f"operator {total}: {'confirmed' if ok else 'NOT confirmed'} {v}")
    print(f"{confirmed} of {total} candidate(s) confirmed")
    return 0 if confirmed == total else 1


if __name__ == "__main__":
    sys.exit(main())
