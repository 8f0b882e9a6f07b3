"""Independent checks of the benchmark's outputs.

Nothing here imports corelabel.  Each check gets its answer by a route of
its own: published counts (the paper's Table 1, OEIS), Birkhoff's and
Burnside's counts, or brute force written from a definition.  Every check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

from itertools import permutations

# Table 1 of the paper: n -> (lattices, congruence-uniform, spherical CU,
# spherical CU whose core label order is a lattice).  The lattice column
# is OEIS A006966.
TABLE1 = {
    1: (1, 1, 1, 1),
    2: (1, 1, 1, 1),
    3: (1, 1, 0, 0),
    4: (2, 2, 1, 1),
    5: (5, 4, 1, 1),
    6: (15, 9, 2, 2),
    7: (53, 22, 3, 3),
    8: (222, 60, 8, 8),
    9: (1078, 174, 17, 16),
    10: (5994, 534, 45, 41),
    11: (37622, 1720, 123, 107),
}

# Moore families (closure systems) on m labelled points, OEIS A102896.
MOORE_FAMILIES = {4: 2480, 5: 1385552}

# Example 6.1 of the paper on the points a, b, c, d (bits 0..3): the
# closure is the identity except ac -> abc, ad -> abd, acd -> abcd.
EX61_RULES = {0b0101: 0b0111, 0b1001: 0b1011, 0b1101: 0b1111}


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closed_sets(m: int, rules: dict[int, int]) -> frozenset[int]:
    """Closed sets of the operator that is the identity outside rules."""
    return frozenset(x for x in range(1 << m) if rules.get(x, x) == x)


# --- census -----------------------------------------------------------------

def census(rows, max_n: int) -> list[str]:
    """rows: (n, lattices, cu, spherical, clo_lattice) per size 1..max_n."""
    want = [(n, *TABLE1[n]) for n in range(1, max_n + 1)]
    got = [tuple(r) for r in rows]
    if got == want:
        return []
    bad = [f"n={w[0]}: got {g[1:]}, published {w[1:]}"
           for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        bad.append(f"{len(got)} rows, expected {len(want)}")
    return ["Table 1 mismatch: " + "; ".join(bad)]


# --- cu-analysis ------------------------------------------------------------

def cu_counts(records, max_n: int) -> list[str]:
    """Per-size counts of CU, spherical and CLO-lattice classes against the
    c, s and S columns of Table 1."""
    got = {n: [0, 0, 0] for n in range(1, max_n + 1)}
    for r in records:
        row = got.setdefault(r["n"], [0, 0, 0])
        row[0] += 1
        if r["spherical"]:
            row[1] += 1
            if r["clo_lattice"]:
                row[2] += 1
    problems = []
    for n in sorted(got):
        want = list(TABLE1[n][1:]) if n in TABLE1 and n <= max_n else [0, 0, 0]
        if got[n] != want:
            problems.append(f"n={n}: (c, s, S) = {tuple(got[n])}, "
                            f"published {tuple(want)}")
    return problems


def _downs(n: int, up) -> list[int]:
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    return down


def _tables(n: int, up):
    """(down, join, meet) of the order given by up-sets (bit k of up[i]
    means i <= k), or None when some pair lacks a least upper or a greatest
    lower bound.  Assumes nothing about how the elements are numbered."""
    down = _downs(n, up)
    size = [d.bit_count() for d in down]

    def extreme(mask, cone, pick):
        # The least (pick=min) or greatest (max) member of mask, if any: it
        # has the fewest or most elements below it.
        if not mask:
            return None
        z = pick(bits(mask), key=size.__getitem__)
        return z if mask & ~cone[z] == 0 else None

    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            j = extreme(up[a] & up[b], up, min)
            m = extreme(down[a] & down[b], down, max)
            if j is None or m is None:
                return None
            join[a][b] = join[b][a] = j
            meet[a][b] = meet[b][a] = m
    return down, join, meet


def principal_congruence(n: int, join, meet, a: int, b: int) -> tuple[int, ...]:
    """cg(a, b) as a class array (each element mapped to the least member
    of its class): the partition generated by a ~ b, closed under
    x ~ y => x v z ~ y v z and x ^ z ~ y ^ z.  join and meet are tables."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    todo = [(a, b)]
    parent[max(a, b)] = min(a, b)
    while todo:
        x, y = todo.pop()
        for row_x, row_y in ((join[x], join[y]), (meet[x], meet[y])):
            for z in range(n):
                p, q = row_x[z], row_y[z]
                rp, rq = find(p), find(q)
                if rp != rq:
                    parent[max(rp, rq)] = min(rp, rq)
                    todo.append((p, q))
    return tuple(find(x) for x in range(n))


def _refines(a, b) -> bool:
    # Every class of a lies in a class of b (class ids are members).
    return all(b[x] == b[a[x]] for x in range(len(a)))


def _lower_covers(n: int, up, down) -> list[list[int]]:
    out = []
    for v in range(n):
        strict = down[v] & ~(1 << v)
        out.append([z for z in bits(strict) if up[z] & strict == 1 << z])
    return out


def lattice_facts(n: int, up) -> dict:
    """Facts about a finite order, each computed from its definition.

    "lattice": every pair has a join and a meet.  For a lattice, "cu":
    congruence-uniform, that is the principal congruences cg(j_*, j) of the
    join-irreducibles are pairwise distinct, and so are the cg(m, m^*) of
    the meet-irreducibles.  For a CU lattice (hence semidistributive):
    "spherical" (mu(0, 1) != 0), and the core label sets.  A cover u < v is
    labelled by the join-irreducible j whose cg(j) is cg(u, v), the finest
    cg(j) that collapses u and v.  psi(x) holds the labels of the covers
    inside [nucleus(x), x], the nucleus being the meet of the lower covers
    of x; gamma(x) the labels of the lower covers of x.  From them:
    "defect" (sum of |psi(x) - gamma(x)|), "nexus" (the number of x whose
    gamma(x) holds only atoms), and, for the core label order (psi sets
    under inclusion), "clo_meet_semilattice", "clo_lattice" (a meet-
    semilattice with a greatest element) and "intersection" (the psi sets
    are closed under pairwise intersection).
    """
    tables = _tables(n, up)
    if tables is None:
        return {"lattice": False}
    down, join, meet = tables
    lower = _lower_covers(n, up, down)
    upper = [[] for _ in range(n)]
    for v in range(n):
        for u in lower[v]:
            upper[u].append(v)
    jis = [j for j in range(n) if len(lower[j]) == 1]
    cg = {}
    for j in jis:
        cls = principal_congruence(n, join, meet, lower[j][0], j)
        if cls in cg:
            return {"lattice": True, "cu": False}
        cg[cls] = j
    mcgs = set()
    for m in (m for m in range(n) if len(upper[m]) == 1):
        cls = principal_congruence(n, join, meet, m, upper[m][0])
        if cls in mcgs:
            return {"lattice": True, "cu": False}
        mcgs.add(cls)
    # Finest first: a congruence with more classes cannot contain one
    # with fewer.
    by_fineness = sorted(cg, key=lambda c: -len(set(c)))

    def label(u, v):
        return next(cg[c] for c in by_fineness if c[u] == c[v])

    bottom = next(x for x in range(n) if down[x] == 1 << x)
    top = next(x for x in range(n) if up[x] == 1 << x)
    atoms = {v for v in range(n) if lower[v] == [bottom]}
    psi, defect, nexus = [], 0, 0
    for x in range(n):
        nuc = x
        for y in lower[x]:
            nuc = y if nuc == x else meet[nuc][y]
        core = up[nuc] & down[x]
        p = 0
        for v in bits(core):
            for u in lower[v]:
                if core >> u & 1:
                    p |= 1 << label(u, v)
        gamma = 0
        for u in lower[x]:
            gamma |= 1 << label(u, x)
        psi.append(p)
        defect += (p & ~gamma).bit_count()
        nexus += all(j in atoms for j in bits(gamma))
    mu = {}
    for y in sorted(range(n), key=lambda x: down[x].bit_count()):
        mu[y] = 1 if y == bottom else -sum(mu[z] for z in bits(down[y] & ~(1 << y)))
    return {"lattice": True, "cu": True, "spherical": mu[top] != 0,
            "defect": defect, "nexus": nexus, **clo_facts(psi)}


def clo_facts(psi) -> dict:
    """Shape of the core label order: the psi sets (bitmasks) under
    inclusion."""
    n = len(psi)
    full = (1 << n) - 1
    below = [sum(1 << z for z in range(n) if psi[z] & ~psi[x] == 0) for x in range(n)]
    size = [p.bit_count() for p in psi]

    def has_meet(a, b):
        lbs = below[a] & below[b]
        if not lbs:
            return False
        g = max(bits(lbs), key=size.__getitem__)
        return lbs & ~below[g] == 0

    semilattice = all(has_meet(a, b) for a in range(n) for b in range(a + 1, n))
    family = set(psi)
    return {
        "clo_meet_semilattice": semilattice,
        "clo_lattice": semilattice and any(below[t] == full for t in range(n)),
        "intersection": all(psi[a] & psi[b] in family
                            for a in range(n) for b in range(a + 1, n)),
    }


def congruences(n: int, up, cons) -> list[str]:
    """Con(L) of a congruence-uniform lattice, given as class arrays
    (each element mapped to the least member of its class).

    Checks from definitions: each partition is compatible with join and
    meet and none repeats; the principal congruences cg(j_*, j), computed
    here, are |J(L)| distinct members of the list; and the list is as long
    as the number of down-sets of their order (Birkhoff), so none is
    missing.
    """
    cons = [tuple(c) for c in cons]
    problems = []
    if len(set(cons)) != len(cons):
        problems.append("repeated congruence")
    tables = _tables(n, up)
    if tables is None:
        return problems + ["the order is not a lattice"]
    down, join, meet = tables
    for cls in cons:
        if len(cls) != n or any(cls[cls[x]] != cls[x] for x in range(n)):
            problems.append(f"{cls} is not a class array")
            continue
        for x in range(n):
            r = cls[x]
            if r == x:
                continue
            if any(cls[join[x][z]] != cls[join[r][z]]
                   or cls[meet[x][z]] != cls[meet[r][z]] for z in range(n)):
                problems.append(f"{cls} is not compatible at {x}")
                break
    # (j_*, j) for every join-irreducible j
    covers = [(lc[0], j) for j, lc in enumerate(_lower_covers(n, up, down))
              if len(lc) == 1]
    ji = {principal_congruence(n, join, meet, a, b) for a, b in covers}
    if len(ji) != len(covers):
        problems.append(f"{len(ji)} distinct cg(j) for |J(L)| = {len(covers)}: "
                        "not congruence-uniform")
    missing = ji - set(cons)
    if missing:
        problems.append(f"{len(missing)} principal congruence(s) missing")
    ji = sorted(ji)
    below = [sum(1 << b for b in range(len(ji)) if _refines(ji[b], a)) for a in ji]
    downsets = sum(
        1 for s in range(1 << len(ji))
        if all(below[a] & ~s == 0 for a in bits(s))
    )
    if downsets != len(cons):
        problems.append(f"{len(cons)} congruences, Birkhoff counts {downsets}")
    return problems


def quotients_inherit(record) -> list[str]:
    """A lattice core label order passes to every quotient by cg(j)."""
    if record["clo_lattice"] and not all(record["quotient_clo"]):
        return [f"n={record['n']}: core label order is a lattice but a "
                f"quotient's is not ({record['quotient_clo']})"]
    return []


# The fields of a cu-analysis record that cu_record checks.
CU_FIELDS = ("spherical", "clo_lattice", "clo_meet_semilattice", "intersection",
             "defect", "nexus")


def cu_record(record) -> list[str]:
    """One analysed CU lattice of cu-analysis against lattice_facts of its
    order."""
    facts = lattice_facts(record["n"], record["up"])
    if not facts.get("cu"):
        return [f"n={record['n']}: generate_cu gave a lattice that is not CU"]
    bad = [f"{k} {record[k]} (expected {facts[k]})" for k in CU_FIELDS
           if record[k] != facts[k]]
    return [f"n={record['n']}: " + ", ".join(bad)] if bad else []


# --- closure-search ---------------------------------------------------------

def perm_maps(m: int) -> list[list[int]]:
    maps = []
    for perm in permutations(range(m)):
        table = [0] * (1 << m)
        for x in range(1 << m):
            for b in bits(x):
                table[x] |= 1 << perm[b]
        maps.append(table)
    return maps


def relabel(fam, table) -> frozenset[int]:
    return frozenset(table[x] for x in fam)


def isomorphic_families(m: int, f, g) -> bool:
    """Some permutation of the ground set maps family f onto g."""
    f, g = frozenset(f), frozenset(g)
    return any(relabel(f, t) == g for t in perm_maps(m))


def is_moore_family(m: int, fam) -> bool:
    fam = frozenset(fam)
    return (1 << m) - 1 in fam and all(x & y in fam for x in fam for y in fam)


def search(default_hits, relaxed_hits, relaxed_key, ex61_key) -> list[str]:
    """search_problem_6_1(4): no hit with every filter on; with the
    single-step filter off, exactly one hit, the operator of Example 6.1.

    Hits are given as closed families on four points.
    """
    problems = []
    if default_hits:
        problems.append(f"{len(default_hits)} hit(s) in the default search, "
                        "expected none")
    if len(relaxed_hits) != 1:
        problems.append(f"{len(relaxed_hits)} hit(s) without single-step, "
                        "expected exactly one")
    else:
        ex61 = closed_sets(4, EX61_RULES)
        if not isomorphic_families(4, relaxed_hits[0], ex61):
            problems.append("the hit without single-step is not Example 6.1")
        if relaxed_key != ex61_key:
            problems.append("the hit's canonical family key differs from ex61's")
    return problems


def moore_four(fams, keys) -> list[str]:
    """2,480 Moore families on 4 points; key classes equal the orbit count
    that Burnside's lemma gives over the 24 permutations."""
    problems = []
    fams = [frozenset(f) for f in fams]
    if len(fams) != MOORE_FAMILIES[4] or len(set(fams)) != len(fams):
        problems.append(f"{len(set(fams))} distinct of {len(fams)} families, "
                        f"expected {MOORE_FAMILIES[4]}")
    if not all(is_moore_family(4, f) for f in fams):
        problems.append("a family is not intersection-closed")
    maps = perm_maps(4)
    fixed = sum(1 for t in maps for f in fams if relabel(f, t) == f)
    if fixed % len(maps):
        problems.append(f"Burnside sum {fixed} not divisible by {len(maps)}")
    orbits = fixed // len(maps)
    if len(set(keys)) != orbits:
        problems.append(f"{len(set(keys))} key classes, Burnside counts {orbits}")
    return problems


def moore_sample(m: int, stream_len: int, sample, size: int) -> list[str]:
    """The sample was drawn at distinct positions of moore_families(m),
    which must yield as many families as OEIS A102896 counts."""
    problems = []
    if stream_len != MOORE_FAMILIES[m]:
        problems.append(f"moore_families({m}) yielded {stream_len} families, "
                        f"expected {MOORE_FAMILIES[m]}")
    if len(set(sample)) != size:
        problems.append(f"{len(set(sample))} distinct sampled families, expected {size}")
    return problems


def relabelled_keys(pairs) -> list[str]:
    """canonical_family_key(F) == canonical_family_key(F relabelled)."""
    bad = sum(1 for a, b in pairs if a != b)
    return [f"{bad} of {len(pairs)} keys change under relabelling"] if bad else []


def biclosed_sets(m: int, table) -> list[int]:
    full = (1 << m) - 1
    return [x for x in range(1 << m)
            if table[x] == x and table[full ^ x] == full ^ x]


def single_step(m: int, table) -> bool:
    """Every cover X < Y of biclosed sets under inclusion adds one element."""
    bic = biclosed_sets(m, table)
    for x in bic:
        above = [y for y in bic if y != x and x & ~y == 0]
        for y in above:
            is_cover = not any(z != y and z & ~y == 0 for z in above)
            if is_cover and (y & ~x).bit_count() != 1:
                return False
    return True


def family_facts(sets) -> dict:
    """lattice_facts of a set family ordered by inclusion; the empty family
    is not a lattice."""
    sets = list(sets)
    if not sets:
        return {"lattice": False}
    up = [sum(1 << k for k, y in enumerate(sets) if x & ~y == 0) for x in sets]
    return lattice_facts(len(sets), up)


def operator_sample(m: int, fam, out) -> list[str]:
    """One analysed closure operator on m points built from the Moore
    family fam, against brute force on the family and the operator table."""
    full = (1 << m) - 1
    fam = frozenset(fam)
    bic = [x for x in fam if full ^ x in fam]
    problems = []
    if not is_moore_family(m, fam):
        problems.append("the sampled family is not a Moore family")
    if not out["valid"]:
        problems.append("validate rejects a Moore-family closure")
    if frozenset(x for x in range(1 << m) if out["table"][x] == x) != fam:
        problems.append("operator's closed sets differ from its family")
    if out["closed_n"] != len(fam):
        problems.append(f"closed-set lattice has {out['closed_n']} elements, "
                        f"family has {len(fam)}")
    if out["biclosed_n"] != len(bic):
        problems.append(f"{out['biclosed_n']} biclosed sets, expected {len(bic)}")
    if out["single_step"] != single_step(m, out["table"]):
        problems.append("is_single_step differs from brute force")
    for name, sets in (("closed", fam), ("biclosed", bic)):
        facts = family_facts(sets)
        if name == "biclosed" and out["biclosed_lattice"] != facts["lattice"]:
            problems.append("biclosed lattice verdict differs from brute force")
        cu = facts.get("cu", False)
        want = (cu, facts["spherical"] if cu else None,
                facts["clo_lattice"] if cu else None)
        got = tuple(out[name + k] for k in ("_cu", "_spherical", "_clo_lattice"))
        if got != want:
            problems.append(f"{name} lattice (CU, spherical, CLO lattice) is "
                            f"{got}, expected {want}")
    return problems

