"""Hodge diamonds of the building blocks: curves, their symmetric powers,
Jacobians and projective spaces; macdonald_vectors, the one expansion
of symmetric powers of a curve into Tate-twisted blocks (r, low, coeffs);
and their two measures: block_e_polynomial, the one expansion into Hodge
numbers, which block_diamond reads back as a diamond, and block_hochschild.
Every g and n of a diamond passes exactpoly.check_param."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence

from .exactpoly import BiPoly, ConsistencyError, LaurentPoly, _nonzero_ends, check_param
from .hodge import HodgeDiamond

Blocks = Iterable[tuple[int, int, Sequence[int]]]  # (r, low, coeffs) block vectors


def block_diamond(g: int, d: int, vectors: Blocks) -> HodgeDiamond:
    """Diamond of dimension d of the blocks of block_e_polynomial, read back
    by HodgeDiamond.from_e_polynomial: wedge^r H^1 L^s lies in degree
    r + 2s with the sign (-1)^r, so non-negative multiplicities never
    cancel.  A block with r < 0, a term outside the table or a failed
    diamond check raises ConsistencyError; blocks with r > 2g vanish."""
    vectors = list(vectors)
    if any(r < 0 for r, _, _ in vectors):
        raise ConsistencyError(f"a block with r < 0 does not fit in dimension {d}")
    try:
        return HodgeDiamond.from_e_polynomial(block_e_polynomial(g, vectors), d)
    except ValueError as exc:
        raise ConsistencyError(str(exc)) from exc


def block_e_polynomial(g: int, vectors: Blocks) -> BiPoly:
    """E-polynomial of the sum of blocks coeffs[e] * wedge^r H^1(C) L^{low+e}
    over (r, low, coeffs) in `vectors`, C a curve of genus g.

    wedge^r H^1 L^s has E-polynomial (-1)^r sum_a C(g, a) C(g, r-a)
    x^{s+a} y^{s+r-a}, all on the diagonal q - p = r - 2a.  One dense
    table per diagonal takes each (r, a) as a single slice update of the
    whole vector, starting at p = low + a; blocks with r > 2g vanish.
    Only the diagonals q - p >= 0 (a <= r/2) are accumulated: the terms
    of a and r-a have the same coefficient with p and q swapped, so
    diagonal -delta is diagonal delta moved delta places along p.
    """
    vectors = [(r, low, coeffs) for r, low, coeffs in vectors if coeffs and 0 <= r <= 2 * g]
    if not vectors:
        return BiPoly.zero()
    comb_g = [math.comb(g, a) for a in range(g + 1)]
    w = max(min(r, 2 * g - r) for r, _, _ in vectors)
    base = min(low + max(0, r - g) for r, low, _ in vectors)
    size = max(low + len(coeffs) + min(g, r) for r, low, coeffs in vectors) - base
    upper = [[0] * size for _ in range(w + 1)]  # upper[delta]: q - p = delta
    for r, low, coeffs in vectors:
        for a in range(max(0, r - g), r // 2 + 1):
            h = comb_g[a] * comb_g[r - a]
            diagonal = upper[r - 2 * a]
            span = slice(low + a - base, low + a - base + len(coeffs))
            scale = (-h if r % 2 else h).__mul__
            diagonal[span] = map(operator.add, diagonal[span], map(scale, coeffs))
    # (p, p + delta) mirrors to (p + delta, p), which still lies below
    # `size`, so the cut tail upper[delta][size - delta:] is all zeros
    diagonals = [[0] * delta + upper[delta][: size - delta] for delta in range(w, 0, -1)]
    diagonals += upper
    # read the table column by column, so the keys arrive sorted by (p, q)
    return BiPoly._raw({
        (p + base, p + base + j - w): v
        for p, column in enumerate(zip(*diagonals))
        for j, v in enumerate(column)
        if v
    })


def block_hochschild(g: int, vectors: Blocks) -> LaurentPoly:
    """Hochschild polynomial of the (r, low, coeffs) blocks of
    block_e_polynomial: a twist moves no block off its diagonal, so
    wedge^r H^1 adds sum(coeffs) C(g, a) C(g, r-a) to t^{r-2a}."""
    comb_g = [math.comb(g, a) for a in range(g + 1)]
    hh = [0] * (2 * g + 1)
    for r, _, coeffs in vectors:
        weight = sum(coeffs)
        for a in range(max(0, r - g), min(g, r) + 1):
            hh[r - 2 * a + g] += weight * comb_g[a] * comb_g[r - a]
    return LaurentPoly._raw({i - g: c for i, c in enumerate(hh) if c})


def macdonald_vectors(g: int, terms) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The sum over (i, low, coeffs) in `terms` (distinct i >= 0) of
    P_i [Sym^i C], P_i = sum_e coeffs[e] L^{low+e}, C of genus g, as
    blocks of the curve in the form of fano_odd_blocks: (r, low, coeffs)
    stands for sum_e coeffs[e] wedge^r H^1 L^{low+e}, for r <= 2g
    ascending, coeffs with nonzero ends, and no entry for a zero block.

    By Macdonald, [Sym^i C] is the sum over r <= min(i, 2g) of
    wedge^r H^1 (1 + L + ... + L^{i-r}), so the sum is
    sum_r wedge^r H^1 Q_r with Q_r = sum_{i >= r} P_i (1 + ... + L^{i-r}).
    Q_r = T_r + L Q_{r+1}, where T_r = sum_{i >= r} P_i, so each r
    costs two dense vector updates, P_r entering T_r as one slice update.
    Every vector runs from the lowest exponent of any P_i to the highest
    of any P_i L^i, and is trimmed to its nonzero ends as it is kept.
    """
    if not terms:
        return ()
    low = min(start for _, start, _ in terms)
    size = max(start + len(coeffs) + i for i, start, coeffs in terms) - low
    polys = {i: (start - low, coeffs) for i, start, coeffs in terms}
    tail = [0] * size  # T_r
    q = [0] * size  # Q_r
    vectors = []
    for r in range(max(polys), -1, -1):
        if r in polys:
            at, coeffs = polys[r]
            span = slice(at, at + len(coeffs))
            tail[span] = map(operator.add, tail[span], coeffs)
        # the shift drops only a zero: deg L Q_{r+1} <= max_i deg P_i L^i
        q = list(map(operator.add, tail, itertools.chain((0,), q)))
        lo, hi = _nonzero_ends(q)
        if r <= 2 * g and lo < hi:
            vectors.append((r, low + lo, tuple(q[lo:hi])))
    return tuple(reversed(vectors))


def curve_diamond(g: int) -> HodgeDiamond:
    """Diamond of a smooth projective curve of genus g."""
    check_param("g", g, 0)
    return HodgeDiamond(((1, g), (g, 1)))


@functools.lru_cache(maxsize=None, typed=True)
def sym_curve_diamond(g: int, n: int) -> HodgeDiamond:
    """Diamond of the n-th symmetric power of a genus-g curve: the blocks
    of [Sym^n C] by macdonald_vectors.  The cache is typed, so a float or
    bool argument never hits an int's entry and reaches the check."""
    check_param("g", g, 0)
    check_param("n", n, 0)
    return block_diamond(g, n, macdonald_vectors(g, ((n, 0, (1,)),)))


def jacobian_diamond(g: int) -> HodgeDiamond:
    """Diamond of a g-dimensional Jacobian: the blocks wedge^r H^1(C),
    r = 0..2g, so h^{p,q} = C(g,p) C(g,q)."""
    check_param("g", g, 0)
    return block_diamond(g, g, [(r, 0, (1,)) for r in range(2 * g + 1)])


def projective_space_diamond(n: int) -> HodgeDiamond:
    """Diamond of n-dimensional projective space: h^{p,p} = 1."""
    check_param("n", n, 0)
    return HodgeDiamond([[1 if p == q else 0 for q in range(n + 1)] for p in range(n + 1)])
