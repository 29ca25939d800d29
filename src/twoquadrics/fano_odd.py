"""Hodge diamonds of Fano schemes of k-planes on smooth odd-dimensional
intersections of two quadrics (the hyperelliptic case).

The cohomology in degree m is a direct sum of Tate twists of exterior
powers of H^1 of the associated genus-g hyperelliptic curve; the number
of copies is the coefficient of an explicit Laurent kernel, and the
twist offset is forced by weight bookkeeping.
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
    """The blocks (g-j, t, mult) of fano_odd_diamond, checked for degree
    and parity."""
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
def fano_odd_diamond(params: OddFanoParams) -> HodgeDiamond:
    """Hodge diamond of the k-plane Fano scheme in the hyperelliptic case.

    For each j = g-k-1..g and each term mult * q^c of
    multiplicity_kernel(g-k, j), the block wedge^{g-j} H^1(C) enters
    degree m = d-c with mult copies, Tate-twisted by t = (m-(g-j))/2;
    block_diamond expands the blocks into Hodge numbers.
    """
    return block_diamond(params.g, params.dimension, _odd_blocks(params))
