"""Hodge diamonds of Fano schemes of k-planes on smooth odd-dimensional
intersections of two quadrics (the hyperelliptic case).

The cohomology in degree m is a direct sum of Tate twists of exterior
powers of H^1 of the associated genus-g hyperelliptic curve; the number
of copies is the coefficient of an explicit Laurent kernel, and the
twist offset is forced by weight bookkeeping.  Each kernel is a sum of
two shifted Gaussian binomials (exactpoly.gauss_sum), cached as a dense
tuple; the block vectors (r, low, coeffs), the copies of each
wedge^r H^1(-t) with zero ends trimmed, are reversed slices of the
kernels, and the dense diamond is read back from their E-polynomial on
request.
"""

from __future__ import annotations

import functools

from .curves import block_diamond
from .exactpoly import LaurentPoly, _nonzero_ends, gauss_sum
from .hodge import ConsistencyError, FanoParams, HodgeDiamond, check_param


class OddFanoParams(FanoParams):
    """Parameters (g, k): planes of dimension k on an intersection of two
    quadrics in projective (2g+1)-space, with 2 <= g and 0 <= k <= g-2."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return (self.k + 1) * (2 * self.g - 2 * self.k - 1)


@functools.lru_cache(maxsize=None, typed=True)
def kernel_coefficients(a: int, b: int) -> tuple[int, tuple[int, ...]]:
    """The multiplicity kernel as (shift, coeffs): its q^{shift+2e}
    coefficient is coeffs[e]; cached, since fano_odd_blocks reads each
    kernel for many (g, k).

    In u = q^2 the kernel is K(a, b) = (1-u^{2b}) P, P =
    prod_{l=b-a+2}^{a+b-2} (1-u^l) / prod_{l=1}^{2a-2} (1-u^l), with
    shift -(b-a+1)(2a-1).  Split the one factor outside P:
    1-u^{2b} = (1-u^{a+b-1}) + u^{a+b-1} (1-u^{b-a+1}), and
    (1-u^{a+b-1}) P = [a+b-1, 2a-2]_u, (1-u^{b-a+1}) P = [a+b-2, 2a-2]_u,
    so K(a, b) = [a+b-1, 2a-2]_u + u^{a+b-1} [a+b-2, 2a-2]_u, a sum of two
    Gaussian binomials with no division, summed by exactpoly.gauss_sum in
    the symmetric form [a+b-1, b-a+1] + u^{a+b-1} [a+b-2, b-a].  At
    b = a-1 it gives [2a-2, 0] + 0 = 1.  At u = 1 the two binomials sum to
    C(a+b-1, 2a-2) + C(a+b-2, 2a-2) = b C(a+b-2, 2a-3) / (a-1), the
    summand count of the product form (each of the 2a-2 factors 1-u^l of
    numerator and denominator is l (1-u) to first order).
    """
    check_param("a", a, 2)
    check_param("b", b, a - 1)
    low, coeffs = gauss_sum([(1, a + b - 1, b - a + 1, (0,)), (1, a + b - 2, b - a, (a + b - 1,))])
    return 2 * low - (b - a + 1) * (2 * a - 1), tuple(coeffs)


@functools.lru_cache(maxsize=None, typed=True)
def multiplicity_kernel(a: int, b: int) -> LaurentPoly:
    """Laurent polynomial whose q^c coefficient is the number of copies of
    the (a, b) cohomology block in centered degree c: the view of
    kernel_coefficients(a, b)."""
    shift, coeffs = kernel_coefficients(a, b)
    return LaurentPoly._raw({2 * e + shift: c for e, c in enumerate(coeffs) if c})


def _check_kernel_term(g: int, k: int, j: int, d: int, c: int) -> None:
    """Raise ConsistencyError unless the kernel term q^c of j puts its
    block in a degree m = d - c of 0..2d, at a twist t = (m-r)/2 that is a
    non-negative integer, and inside the dimension (t + r <= d)."""
    m = d - c
    if not 0 <= m <= 2 * d:
        raise ConsistencyError(
            f"block (g, k, j) = ({g}, {k}, {j}): kernel term q^{c} lands in "
            f"degree {m}, outside 0..{2 * d}"
        )
    r = g - j
    delta = m - r
    if delta < 0 or delta % 2:
        raise ConsistencyError(
            f"block (g, k, j, m) = ({g}, {k}, {j}, {m}): twist offset "
            f"{delta}/2 is not a non-negative integer"
        )
    t = delta // 2
    if t + r > d:
        raise ConsistencyError(
            f"block (r, t) = ({r}, {t}) of (g, k) = ({g}, {k}) does not fit in dimension {d}"
        )


def fano_odd_blocks(params: OddFanoParams) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Block vectors of the k-plane Fano scheme in the hyperelliptic case:
    (r, low, coeffs) for r ascending in 0..k+1, coeffs[e] the number of
    copies of wedge^r H^1(C)(-low-e) in its cohomology, with nonzero ends;
    an r with no copies has no entry.

    For each j = g-k-1..g and each term mult * q^c of the kernel
    (g-k, j), the block wedge^r H^1(C), r = g-j, enters degree m = d-c
    with mult copies, Tate-twisted by t = (m-r)/2.  The kernel term
    q^{shift+2e} lands at t = (d-shift-r)/2 - e, so coeffs is the
    kernel's nonzero span lo..hi-1 reversed, from low = (d-shift-r)/2 -
    (hi-1).  The parity of that offset is checked once per kernel, degree
    and fit on its nonzero ends (a failure names the first offending term,
    lowest c first).  Then each block, r ascending, must have no negative
    entry and obey Serre duality: as many copies at t as at d-r-t.  As
    coeffs has nonzero ends, the vector over t = 0..d-r is a palindrome
    exactly when coeffs is one and is centred, 2 low + len(coeffs) - 1 ==
    d - r; only a failure builds that vector, to name its first
    asymmetric t.  A failure raises ConsistencyError.
    """
    g, k = params.g, params.k
    d = params.dimension
    blocks = []
    for j in range(g - k - 1, g + 1):
        r = g - j
        shift, coeffs = kernel_coefficients(g - k, j)
        lo, hi = _nonzero_ends(coeffs)
        if lo == hi:
            continue
        # every term fits exactly when the offset is even and the ends
        # satisfy r-d <= c <= d-r; otherwise the term scan below raises
        if (d - shift - r) % 2 or shift + 2 * lo < r - d or shift + 2 * (hi - 1) > d - r:
            for e in range(lo, hi):
                if coeffs[e]:
                    _check_kernel_term(g, k, j, d, shift + 2 * e)
        blocks.append((r, (d - shift - r) // 2 - hi + 1, coeffs[lo:hi][::-1]))
    blocks.reverse()
    for r, low, coeffs in blocks:
        if min(coeffs) < 0:
            raise ConsistencyError(
                f"negative multiplicity of wedge^{r} H^1 for (g, k) = ({g}, {k})"
            )
        if coeffs != coeffs[::-1] or 2 * low + len(coeffs) - 1 != d - r:
            v = (0,) * low + coeffs + (0,) * (d - r + 1 - low - len(coeffs))
            t = next(t for t in range(len(v)) if v[t] != v[-1 - t])
            raise ConsistencyError(
                f"Serre duality fails: wedge^{r} H^1(-{t}) has multiplicity {v[t]} "
                f"but wedge^{r} H^1(-{d - r - t}) has {v[-1 - t]}"
            )
    return tuple(blocks)


@functools.cache
def fano_odd_diamond(params: OddFanoParams) -> HodgeDiamond:
    """Hodge diamond of the k-plane Fano scheme in the hyperelliptic case,
    read back by block_diamond from the block vectors fano_odd_blocks."""
    return block_diamond(params.g, params.dimension, fano_odd_blocks(params))
