"""Hodge diamonds of Fano schemes of k-planes on smooth odd-dimensional
intersections of two quadrics (the hyperelliptic case).

The cohomology in degree m is a direct sum of Tate twists of exterior
powers of H^1 of the associated genus-g hyperelliptic curve; the number
of copies is the coefficient of an explicit Laurent kernel, and the
twist offset is forced by weight bookkeeping.  The block vector (copies
of each wedge^r H^1(-t)) is the stored form; the dense diamond is
derived from it on request.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .curves import block_diamond
from .exactpoly import LaurentPoly, div_one_minus_power, mul_one_minus_power
from .hodge import ConsistencyError, HodgeDiamond


@dataclass(frozen=True)
class OddFanoParams:
    """Parameters (g, k): planes of dimension k on an intersection of two
    quadrics in projective (2g+1)-space, with 2 <= g and 0 <= k <= g-2."""

    g: int
    k: int

    def __post_init__(self):
        if self.g < 2:
            raise ValueError(f"g = {self.g}: need g >= 2")
        if not 0 <= self.k <= self.g - 2:
            raise ValueError(f"k = {self.k}: need 0 <= k <= g-2 = {self.g - 2}")

    @property
    def dimension(self) -> int:
        return (self.k + 1) * (2 * self.g - 2 * self.k - 1)


@functools.cache
def multiplicity_kernel(a: int, b: int) -> LaurentPoly:
    """Laurent polynomial whose q^c coefficient is the summand count
    multiplicity(a, b, c).

    Equals q^{-(b-a+1)(2a-1)} (1-q^{4b})
    prod_{l=b-a+2}^{a+b-2} (1-q^{2l}) / prod_{l=1}^{2a-2} (1-q^{2l}).
    Every factor is a polynomial in u = q^2, so the numerator is expanded
    densely in u and each denominator factor is divided out as a running
    sum whose dropped tail must vanish (InexactDivisionError otherwise).
    """
    if a < 2:
        raise ValueError(f"a = {a}: need a >= 2")
    if b < a - 1:
        raise ValueError(f"b = {b}: need b >= a-1 = {a - 1}")
    coeffs = [1]
    mul_one_minus_power(coeffs, 2 * b)
    for ell in range(b - a + 2, a + b - 1):
        mul_one_minus_power(coeffs, ell)
    for ell in range(1, 2 * a - 1):
        div_one_minus_power(coeffs, ell)
    shift = -(b - a + 1) * (2 * a - 1)
    return LaurentPoly((2 * e + shift, c) for e, c in enumerate(coeffs) if c)


def multiplicity(a: int, b: int, c: int) -> int:
    """Number of copies of the (a, b) cohomology block in centered degree c."""
    return multiplicity_kernel(a, b).coefficient(c)


def _odd_blocks(params: OddFanoParams):
    """The blocks (g-j, t, mult) of fano_odd_blocks, one per kernel term,
    checked for degree and parity."""
    g, k = params.g, params.k
    d = params.dimension
    for j in range(g - k - 1, g + 1):
        for c, mult in multiplicity_kernel(g - k, j).items():
            m = d - c
            if not 0 <= m <= 2 * d:
                raise ConsistencyError(
                    f"block (g, k, j) = ({g}, {k}, {j}): kernel term q^{c} lands in "
                    f"degree {m}, outside 0..{2 * d}"
                )
            delta = m - (g - j)
            if delta < 0 or delta % 2:
                raise ConsistencyError(
                    f"block (g, k, j, m) = ({g}, {k}, {j}, {m}): twist offset "
                    f"{delta}/2 is not a non-negative integer"
                )
            yield g - j, delta // 2, mult


@functools.cache
def fano_odd_blocks(params: OddFanoParams) -> tuple[tuple[int, ...], ...]:
    """Block vector of the k-plane Fano scheme in the hyperelliptic case:
    entry r = 0..k+1 is the dense tuple, over t = 0..d-r, of the number of
    copies of wedge^r H^1(C)(-t) in its cohomology.

    For each j = g-k-1..g and each term mult * q^c of
    multiplicity_kernel(g-k, j), the block wedge^{g-j} H^1(C) enters
    degree m = d-c with mult copies, Tate-twisted by t = (m-(g-j))/2.
    The vector is checked as stored: every block fits in dimension d,
    every entry is non-negative, and v_r[t] == v_r[d-r-t] (Serre
    duality).  A failure raises ConsistencyError.
    """
    g, k = params.g, params.k
    d = params.dimension
    vectors = [[0] * (d - r + 1) for r in range(k + 2)]
    for r, t, mult in _odd_blocks(params):
        if t + r > d:
            raise ConsistencyError(
                f"block (r, t) = ({r}, {t}) of (g, k) = ({g}, {k}) does not fit in dimension {d}"
            )
        vectors[r][t] += mult
    for r, v in enumerate(vectors):
        if min(v) < 0:
            raise ConsistencyError(
                f"negative multiplicity of wedge^{r} H^1 for (g, k) = ({g}, {k})"
            )
        if v != v[::-1]:
            t = next(t for t in range(len(v)) if v[t] != v[-1 - t])
            raise ConsistencyError(
                f"Serre duality fails: wedge^{r} H^1(-{t}) has multiplicity {v[t]} "
                f"but wedge^{r} H^1(-{d - r - t}) has {v[-1 - t]}"
            )
    return tuple(map(tuple, vectors))


@functools.cache
def fano_odd_diamond(params: OddFanoParams) -> HodgeDiamond:
    """Hodge diamond of the k-plane Fano scheme in the hyperelliptic case,
    expanded by block_diamond from the block vector fano_odd_blocks."""
    blocks = (
        (r, t, mult)
        for r, v in enumerate(fano_odd_blocks(params))
        for t, mult in enumerate(v)
        if mult
    )
    return block_diamond(params.g, params.dimension, blocks)
