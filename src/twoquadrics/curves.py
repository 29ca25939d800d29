"""Hodge diamonds of the building blocks: curves, their symmetric powers,
Jacobians and projective spaces, and the expansion of Tate-twisted
cohomology blocks of a curve into Hodge numbers."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable

from .hodge import ConsistencyError, HodgeDiamond


def block_diamond(g: int, d: int, blocks: Iterable[tuple[int, int, int]]) -> HodgeDiamond:
    """Diamond of dimension d whose cohomology is the sum of blocks
    mult * wedge^r H^1(C)(-t), C a curve of genus g.

    Each block (r, t, mult) adds mult * C(g, p-t) C(g, q-t) to h^{p,q}
    for every p + q = r + 2t.  A block that does not fit in the table, or
    a table that fails the diamond checks, raises ConsistencyError.
    """
    comb_g = [math.comb(g, a) for a in range(g + 1)]
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for r, t, mult in blocks:
        if r < 0 or t < 0 or t + min(r, g) > d:
            raise ConsistencyError(
                f"block (r, t) = ({r}, {t}) of genus {g} does not fit in dimension {d}"
            )
        # wedge^r H^1 has h^{a, r-a} = C(g, a) C(g, r-a), shifted by (t, t)
        for a in range(max(0, r - g), min(g, r) + 1):
            h[t + a][t + r - a] += mult * comb_g[a] * comb_g[r - a]
    try:
        return HodgeDiamond(h)
    except ValueError as exc:
        raise ConsistencyError(str(exc)) from exc


@functools.cache
def curve_diamond(g: int) -> HodgeDiamond:
    """Diamond of a smooth projective curve of genus g."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    return HodgeDiamond(((1, g), (g, 1)))


@functools.cache
def sym_curve_diamond(g: int, n: int) -> HodgeDiamond:
    """Diamond of the n-th symmetric power of a genus-g curve.

    By Macdonald, [Sym^n C] is the sum over r <= n of
    wedge^r H^1(C) (1 + L + ... + L^{n-r}): one block (r, t, 1) for each
    r <= min(n, 2g) and t <= n - r.
    """
    if g < 0 or n < 0:
        raise ValueError("genus and power must be non-negative")
    return block_diamond(
        g, n, ((r, t, 1) for r in range(min(n, 2 * g) + 1) for t in range(n - r + 1))
    )


@functools.cache
def jacobian_diamond(g: int) -> HodgeDiamond:
    """Diamond of a g-dimensional Jacobian: the blocks wedge^r H^1(C),
    r = 0..2g, so h^{p,q} = C(g,p) C(g,q)."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    return block_diamond(g, g, ((r, 0, 1) for r in range(2 * g + 1)))


@functools.cache
def projective_space_diamond(n: int) -> HodgeDiamond:
    """Diamond of n-dimensional projective space: h^{p,p} = 1."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return HodgeDiamond([[1 if p == q else 0 for q in range(n + 1)] for p in range(n + 1)])
