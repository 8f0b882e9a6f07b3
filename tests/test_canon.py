"""Canonical forms and isomorphism tests against a brute-force oracle."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from corelabel import are_isomorphic, canonical_key_poset, from_covers
from corelabel import canon
from corelabel.bitsets import bits
from corelabel.fixtures import load_poset
from suites import boolean_lattice, weak_order


@st.composite
def posets(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    edges = [
        (i, j)
        for j in range(1, n)
        for i in range(j)
        if draw(st.booleans())
    ]
    return from_covers(n, edges)


def relabel(p, perm):
    edges = [(perm[a], perm[b]) for a, b in p.covers]
    return from_covers(p.n, edges)


def brute_isomorphic(p, q):
    if p.n != q.n:
        return False
    rel_p = {(x, y) for x in range(p.n) for y in range(p.n) if x != y and p.leq(x, y)}
    rel_q = {(x, y) for x in range(q.n) for y in range(q.n) if x != y and q.leq(x, y)}
    return any(
        {(perm[x], perm[y]) for x, y in rel_p} == rel_q
        for perm in permutations(range(q.n))
    )


def test_distinguishes_chain_from_fork():
    chain = from_covers(3, [(0, 1), (1, 2)])
    fork = from_covers(3, [(0, 1), (0, 2)])
    assert not are_isomorphic(chain, fork)
    assert canonical_key_poset(chain) != canonical_key_poset(fork)


def test_fixture_is_isomorphic_to_its_relabeling():
    p = load_poset("fig8a")
    q = relabel(p, [8, 7, 6, 5, 4, 3, 2, 1, 0])
    assert are_isomorphic(p, q)
    assert canonical_key_poset(p) == canonical_key_poset(q)


@given(posets(), st.randoms(use_true_random=False))
def test_relabeling_preserves_the_canonical_key(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabel(p, perm)
    assert canonical_key_poset(q) == canonical_key_poset(p)
    assert are_isomorphic(p, q)


@given(posets(), posets())
def test_matches_brute_force_on_small_pairs(p, q):
    assert are_isomorphic(p, q) == brute_isomorphic(p, q)
    if p.n == q.n:
        same_key = canonical_key_poset(p) == canonical_key_poset(q)
        assert same_key == brute_isomorphic(p, q)


# Reference for canonical_key: the same refinement and backtracking without
# twin pruning, so every branch of every cell is explored.  The keys must be
# byte-identical, since stored keys and the census dedup depend on them.


def unpruned_key(p) -> bytes:
    n = p.n
    if n == 0:
        return b""
    ups = [list(bits(p.upper[i])) for i in range(n)]
    downs = [list(bits(p.lower[i])) for i in range(n)]

    def levels(ups, downs):
        lev = [0] * n
        pending = [len(downs[i]) for i in range(n)]
        queue = [i for i in range(n) if pending[i] == 0]
        while queue:
            i = queue.pop()
            for j in ups[i]:
                lev[j] = max(lev[j], lev[i] + 1)
                pending[j] -= 1
                if pending[j] == 0:
                    queue.append(j)
        return lev

    def compress(sig):
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        return [ranks[s] for s in sig]

    def refine(colors):
        while True:
            new = compress(
                [
                    (
                        colors[i],
                        tuple(sorted(colors[j] for j in ups[i])),
                        tuple(sorted(colors[j] for j in downs[i])),
                    )
                    for i in range(n)
                ]
            )
            if new == colors:
                return colors
            colors = new

    def encode(colors):
        enc = [0] * n
        for i in range(n):
            for j in downs[i]:
                enc[colors[i]] |= 1 << colors[j]
        return enc

    best = None

    def rec(colors):
        nonlocal best
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        cell = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if cell is None:
            enc = encode(colors)
            if best is None or enc < best:
                best = enc
            return
        for v in cell:
            rec(refine(compress([(colors[i], i != v) for i in range(n)])))

    lev_b, lev_t = levels(ups, downs), levels(downs, ups)
    rec(
        refine(
            compress(
                [
                    (lev_b[i], lev_t[i], len(downs[i]), len(ups[i]))
                    for i in range(n)
                ]
            )
        )
    )
    width = max(4, (max(best).bit_length() + 7) // 8)
    return n.to_bytes(2, "little") + b"".join(m.to_bytes(width, "little") for m in best)


def m_k(k):
    atoms = range(1, k + 1)
    return from_covers(k + 2, [(0, a) for a in atoms] + [(a, k + 1) for a in atoms])


def grid(a, b):
    def at(i, j):
        return i * b + j

    edges = [(at(i, j), at(i + 1, j)) for i in range(a - 1) for j in range(b)]
    edges += [(at(i, j), at(i, j + 1)) for i in range(a) for j in range(b - 1)]
    return from_covers(a * b, edges)


SYMMETRIC = {
    **{f"M_{k}": m_k(k) for k in range(3, 8)},
    "2^3": boolean_lattice(3).poset,
    "2^4": boolean_lattice(4).poset,
    "3x3": grid(3, 3),
}


def test_matches_the_unpruned_search_on_small_lattices(small_lattices):
    for lat in small_lattices:
        assert canonical_key_poset(lat.poset) == unpruned_key(lat.poset)


def test_matches_the_unpruned_search_on_cu_lattices(cu_corpus):
    for lat in cu_corpus:
        assert canonical_key_poset(lat.poset) == unpruned_key(lat.poset)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_matches_the_unpruned_search_on_relabelled_symmetric_lattices(name):
    p = SYMMETRIC[name]
    key = canonical_key_poset(p)
    assert key == unpruned_key(p)
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = relabel(p, perm)
        assert canonical_key_poset(q) == key == unpruned_key(q)


# The reference explores all 7! branches of a 7-element antichain, which
# can outlast hypothesis's default 200 ms deadline on a busy machine.
@settings(deadline=None)
@given(posets(max_n=7))
def test_matches_the_unpruned_search_on_small_posets(p):
    assert canonical_key_poset(p) == unpruned_key(p)


def test_twins_are_branched_on_once(monkeypatch):
    # M_7's seven atoms are twins: one branch per search-tree level, where
    # the unpruned search visits 7! * (1/1! + 1/2! + ... + 1/7!) = 8,660.
    nodes = []
    refine = canon._refine

    def counted(*args):
        nodes.append(1)
        return refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    canonical_key_poset(m_k(7))
    assert len(nodes) <= 7


def chain_poset(n):
    return from_covers(n, [(i, i + 1) for i in range(n - 1)])


def test_keys_widen_only_past_32_bit_masks():
    # The 33-chain's top covers element 31, which fits in 4 bytes; the
    # 34-chain's covers element 32, so its key takes 5 bytes a mask.
    for n, width in ((33, 4), (34, 5)):
        p = chain_poset(n)
        key = canonical_key_poset(p)
        assert len(key) == 2 + n * width
        assert key == unpruned_key(p)
        assert are_isomorphic(p, relabel(p, list(reversed(range(n)))))


def test_weak_order_of_s5_matches_a_relabelled_copy():
    p = weak_order(5).poset
    perm = list(range(p.n))
    random.Random(5).shuffle(perm)
    q = relabel(p, perm)
    assert canonical_key_poset(q) == canonical_key_poset(p) == unpruned_key(p)
    assert are_isomorphic(p, q)
    assert not are_isomorphic(p, from_covers(p.n, p.covers[1:]))
