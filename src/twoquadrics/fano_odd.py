"""Hodge diamonds of Fano schemes of k-planes on smooth odd-dimensional
intersections of two quadrics (the hyperelliptic case).

The cohomology is a direct sum of Tate twists of exterior powers of H^1
of the associated genus-g hyperelliptic curve.  The copies of each
wedge^r H^1(-t) form one kernel, a sum of two Gaussian binomials in u = L
(exactpoly.gauss_sum) cached with nonzero ends, a palindrome from u^0,
read forwards from the twist r(g-k-1); multiplicity_kernel is its
centred-q view.  Each block passes hodge.serre_violation, and the dense
diamond is read back from the blocks' E-polynomial.
"""

from __future__ import annotations

import functools

from .curves import block_diamond
from .exactpoly import LaurentPoly, gauss_sum
from .hodge import ConsistencyError, FanoParams, HodgeDiamond, check_param, serre_violation


class OddFanoParams(FanoParams):
    """Parameters (g, k): planes of dimension k on an intersection of two
    quadrics in projective (2g+1)-space, with 2 <= g and 0 <= k <= g-2."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return (self.k + 1) * (2 * self.g - 2 * self.k - 1)


@functools.lru_cache(maxsize=None, typed=True)
def kernel_coefficients(a: int, b: int) -> tuple[int, tuple[int, ...]]:
    """The multiplicity kernel K(a, b) in u = q^2 as gauss_sum's (low,
    coeffs): its u^{low+e} coefficient is coeffs[e], with nonzero ends;
    cached, since fano_odd_blocks reads each kernel for many (g, k).

    K(a, b) = (1-u^{2b}) P, P = prod_{l=b-a+2}^{a+b-2} (1-u^l) /
    prod_{l=1}^{2a-2} (1-u^l): 2a-2 factors 1-u^l above and as many
    below, each 1 at u = 0 and equal to -u^l (1-u^{-l}), so K(0) = 1 (low
    is 0) and K(u) = u^D K(1/u), D = (2a-1)(b-a+1) the sum of the upper
    l less that of the lower: K is a palindrome of degree D.
    multiplicity_kernel gives its centred q form, K(a, b)(q^2) shifted by
    -(b-a+1)(2a-1).  Split the one factor outside P: 1-u^{2b} =
    (1-u^{a+b-1}) + u^{a+b-1} (1-u^{b-a+1}), and (1-u^{a+b-1}) P =
    [a+b-1, 2a-2]_u, (1-u^{b-a+1}) P = [a+b-2, 2a-2]_u, so K(a, b) =
    [a+b-1, 2a-2]_u + u^{a+b-1} [a+b-2, 2a-2]_u, a sum of two Gaussian
    binomials with no division, summed by exactpoly.gauss_sum in the
    symmetric form [a+b-1, b-a+1] + u^{a+b-1} [a+b-2, b-a].  At b = a-1
    it gives [2a-2, 0] + 0 = 1.  At u = 1 the two binomials sum to
    C(a+b-1, 2a-2) + C(a+b-2, 2a-2) = b C(a+b-2, 2a-3) / (a-1), the
    summand count of the product form (each of the 2a-2 factors 1-u^l of
    numerator and denominator is l (1-u) to first order).
    """
    check_param("a", a, 2)
    check_param("b", b, a - 1)
    low, coeffs = gauss_sum([(1, a + b - 1, b - a + 1, (0,)), (1, a + b - 2, b - a, (a + b - 1,))])
    return low, tuple(coeffs)


@functools.lru_cache(maxsize=None, typed=True)
def multiplicity_kernel(a: int, b: int) -> LaurentPoly:
    """Laurent polynomial whose q^c coefficient is the number of copies of
    the (a, b) cohomology block in centered degree c: the kernel
    kernel_coefficients(a, b) at u = q^2, shifted by -(b-a+1)(2a-1), so
    that it is symmetric about c = 0."""
    low, coeffs = kernel_coefficients(a, b)
    shift = 2 * low - (b - a + 1) * (2 * a - 1)
    return LaurentPoly._raw({2 * e + shift: c for e, c in enumerate(coeffs) if c})


def fano_odd_blocks(params: OddFanoParams) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Block vectors of the k-plane Fano scheme in the hyperelliptic case:
    (r, low, coeffs) for r ascending in 0..k+1, coeffs[e] the number of
    copies of wedge^r H^1(C)(-low-e) in its cohomology, with nonzero ends;
    an r with no copies has no entry.

    The block of r is the kernel K(g-k, g-r) read forwards from the twist
    r(g-k-1): its term u^{low_u+e} gives that many copies of
    wedge^r H^1(C)(-t), t = r(g-k-1) + low_u + e.  The kernel's centred
    term q^c enters degree m = d-c at twist (m-r)/2, d = (k+1)(2g-2k-1),
    which reads K backwards from (d+D-r)/2, D = (k-r+1)(2g-2k-1); K is a
    palindrome of degree D from u^0 (see kernel_coefficients), so that is
    reading it forwards from (d-D-r)/2 = r(g-k-1).

    Each block is checked by hodge.serre_violation, span d-r and index t
    named wedge^r H^1(-t): it must fit (t = low..top inside 0..d-r), have
    no negative entry and obey Serre duality, as many copies at t as at
    d-r-t.  Fit and centring keep every block in degrees m = r+2t of
    r..2d-r, inside 0..2d.  A failure raises ConsistencyError with the
    rule's message.
    """
    g, k = params.g, params.k
    d = params.dimension
    blocks = []
    for r in range(k + 2):
        low, coeffs = kernel_coefficients(g - k, g - r)
        if not coeffs:
            continue
        low += r * (g - k - 1)
        violation = serre_violation(coeffs, low, d - r, lambda t: f"wedge^{r} H^1({-t})")
        if violation:
            raise ConsistencyError(violation)
        blocks.append((r, low, coeffs))
    return tuple(blocks)


@functools.cache
def fano_odd_diamond(params: OddFanoParams) -> HodgeDiamond:
    """Hodge diamond of the k-plane Fano scheme in the hyperelliptic case,
    read back by block_diamond from the block vectors fano_odd_blocks."""
    return block_diamond(params.g, params.dimension, fano_odd_blocks(params))
