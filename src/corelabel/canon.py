"""Canonical labeling of small posets via refinement and backtracking."""

from __future__ import annotations

from .bitsets import bits
from .poset import Poset


def canonical_key(n: int, upper: list[int], lower: list[int]) -> bytes:
    """Canonical encoding of a cover DAG; equal iff the posets are isomorphic.

    The encoding is independent of the input labeling, and the canonical
    labeling it is read off from is always a linear extension.
    """
    if n == 0:
        return b""
    ups = [list(bits(upper[i])) for i in range(n)]
    downs = [list(bits(lower[i])) for i in range(n)]
    lev_b = _levels(n, ups, downs)
    lev_t = _levels(n, downs, ups)
    seed = [
        (lev_b[i], lev_t[i], len(downs[i]), len(ups[i])) for i in range(n)
    ]
    colors = _compress(seed)
    colors = _refine(n, ups, downs, colors)
    best: list[int] | None = None

    def rec(colors: list[int]) -> None:
        nonlocal best
        cell = _first_nonsingleton(n, colors)
        if cell is None:
            enc = _encode(n, downs, colors)
            if best is None or enc < best:
                best = enc
            return
        c = colors[cell[0]]
        # Twins (same upper and same lower covers) are swapped by an
        # automorphism that fixes every individualized vertex, so their
        # subtrees yield the same encodings: explore one per twin class.
        tried: set[tuple[int, int]] = set()
        for v in cell:
            twin = (upper[v], lower[v])
            if twin in tried:
                continue
            tried.add(twin)
            # Individualize v: it keeps color c, the rest of its cell
            # moves up one, as _compress of (color, i != v) would give.
            split = [x if x < c else x + 1 for x in colors]
            split[v] = c
            rec(_refine(n, ups, downs, split))

    rec(colors)
    assert best is not None
    # 4 bytes a mask unless one needs more (n >= 34); n then fixes the width.
    width = max(4, (max(best).bit_length() + 7) // 8)
    head = n.to_bytes(2, "little")
    return head + b"".join(m.to_bytes(width, "little") for m in best)


def canonical_key_poset(p: Poset) -> bytes:
    """Canonical encoding of a Poset."""
    return canonical_key(p.n, list(p.upper), list(p.lower))


def are_isomorphic(p: Poset, q: Poset) -> bool:
    """True iff the two posets are isomorphic."""
    return canonical_key_poset(p) == canonical_key_poset(q)


def _levels(n: int, ups: list[list[int]], downs: list[list[int]]) -> list[int]:
    # Longest-chain height measured from the downs-minimal elements.
    lev = [0] * n
    pending = [len(downs[i]) for i in range(n)]
    queue = [i for i in range(n) if pending[i] == 0]
    while queue:
        i = queue.pop()
        for j in ups[i]:
            if lev[i] + 1 > lev[j]:
                lev[j] = lev[i] + 1
            pending[j] -= 1
            if pending[j] == 0:
                queue.append(j)
    return lev


def _compress(sig: list) -> list[int]:
    ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
    return [ranks[s] for s in sig]


def _refine(n: int, ups, downs, colors: list[int]) -> list[int]:
    # colors are dense ranks; so are the returned ones.
    while True:
        get = colors.__getitem__
        sig = [
            (c, tuple(sorted(map(get, u))), tuple(sorted(map(get, d))))
            for c, u, d in zip(colors, ups, downs)
        ]
        new = _compress(sig)
        if new == colors:
            return colors
        colors = new


def _first_nonsingleton(n: int, colors: list[int]) -> list[int] | None:
    # The cell of the smallest color held by more than one vertex.
    size = [0] * n
    for c in colors:
        size[c] += 1
    for c, k in enumerate(size):
        if k > 1:
            return [i for i, x in enumerate(colors) if x == c]
    return None


def _encode(n: int, downs, colors: list[int]) -> list[int]:
    # colors is discrete here: colors[i] is the canonical label of i.
    enc = [0] * n
    for i in range(n):
        m = 0
        for j in downs[i]:
            m |= 1 << colors[j]
        enc[colors[i]] = m
    return enc
