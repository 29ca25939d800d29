"""Betti numbers, Hodge-Tate diamonds and Euler characteristics of Fano
schemes of k-planes on smooth even-dimensional intersections of two
quadrics (the stacky case).

Here the cohomology is concentrated in even degrees and of Hodge-Tate
type, so the diamond is determined by the even Betti numbers, which have
a closed expression through Gaussian binomial coefficients.  The Betti
vector is the stored form; the dense diamond is derived from it on
request.
"""

from __future__ import annotations

import functools
import math

from .curves import block_diamond
from .exactpoly import gauss_packed, packed_width, unpack
from .hodge import ConsistencyError, FanoParams, HodgeDiamond


class EvenFanoParams(FanoParams):
    """Parameters (g, k): planes of dimension k on an intersection of two
    quadrics in projective 2g-space, with 2 <= g and 0 <= k <= g-2."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return (self.k + 1) * (2 * self.g - 2 * self.k - 2)


@functools.cache
def fano_even_betti_numbers(params: EvenFanoParams) -> tuple[int, ...]:
    """Even Betti numbers (b_0, b_2, ..., b_{2d}), d = dimension: the
    coefficients of sum_{j=0..k+1} C(2g+1, j) q^{j(g-k-1)} [2g-k-j-1, k+1-j]_q,
    summed as one packed int (exactpoly.pack) and unpacked once.

    The packing width comes from the bound sum_j C(2g+1, j) C(n_j, m_j),
    (n_j, m_j) = (2g-k-j-1, k+1-j), computed by math.comb: the
    coefficients of [n_j, m_j] are non-negative and sum to C(n_j, m_j),
    so every coefficient of every partial sum is at most the bound.

    The vector is checked as stored: no block runs past index d, its
    entries are non-negative, and it is a palindrome (Serre duality).  A
    failure raises ConsistencyError.
    """
    g, k = params.g, params.k
    d = params.dimension
    blocks = [(j, math.comb(2 * g + 1, j), 2 * g - k - j - 1, k + 1 - j) for j in range(k + 2)]
    width = packed_width(sum(w * math.comb(n, m) for _, w, n, m in blocks))
    total = 0
    for j, w, n, m in blocks:
        total += w * gauss_packed(n, m, width) << (j * (g - k - 1) * width)
    try:
        b = unpack(total, width, d + 1)
    except OverflowError:
        # some block has a nonzero coefficient past degree d; name the first
        for j, w, n, m in blocks:
            e = j * (g - k - 1) + len(unpack(gauss_packed(n, m, width), width))
            if e > d + 1:
                raise ConsistencyError(
                    f"block j = {j} of (g, k) = ({g}, {k}) ends at degree {e - 1} > {d}"
                ) from None
        raise ConsistencyError(
            f"Betti vector of (g, k) = ({g}, {k}) exceeds its coefficient bound"
        ) from None
    if min(b) < 0:
        raise ConsistencyError(f"negative Betti number for (g, k) = ({g}, {k})")
    if b != b[::-1]:
        raise ConsistencyError(f"Betti vector of (g, k) = ({g}, {k}) is not palindromic")
    return tuple(b)


def fano_even_betti(params: EvenFanoParams, p: int) -> int:
    """Betti number b_{2p}; any integer p is accepted and p outside
    0..dimension gives 0."""
    betti = fano_even_betti_numbers(params)
    return betti[p] if 0 <= p < len(betti) else 0


def fano_even_diamond(params: EvenFanoParams) -> HodgeDiamond:
    """Hodge-Tate diamond: h^{p,p} = b_{2p}, all off-diagonal entries 0,
    read back from the block vector (0, 0, betti): b_{2p} copies of L^p."""
    betti = fano_even_betti_numbers(params)
    return block_diamond(params.g, params.dimension, [(0, 0, betti)])


def euler_closed_form(g: int, k: int) -> int:
    """Euler characteristic C(g, k+1) 4^{k+1}.

    Also accepts the degenerate k = g-1 (a finite reduced scheme of
    cardinality 4^g), for which the formula still holds.
    """
    if g < 2:
        raise ValueError(f"g = {g}: need g >= 2")
    if not 0 <= k <= g - 1:
        raise ValueError(f"k = {k}: need 0 <= k <= g-1 = {g - 1}")
    return math.comb(g, k + 1) * 4 ** (k + 1)
