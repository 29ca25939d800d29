"""Betti numbers, Hodge-Tate diamonds and Euler characteristics of Fano
schemes of k-planes on smooth even-dimensional intersections of two
quadrics (the stacky case).

Here the cohomology is concentrated in even degrees and of Hodge-Tate
type, so the diamond is determined by the even Betti numbers, which have
a closed expression through Gaussian binomial coefficients.  The Betti
vector, checked by hodge.serre_violation, is the stored form; the dense
diamond is derived from it on request.
"""

from __future__ import annotations

import math

from .curves import block_diamond
from .exactpoly import gauss_sum
from .hodge import ConsistencyError, FanoParams, HodgeDiamond, check_param, serre_violation


class EvenFanoParams(FanoParams):
    """Parameters (g, k): planes of dimension k on an intersection of two
    quadrics in projective 2g-space, with 2 <= g and 0 <= k <= g-2."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return (self.k + 1) * (2 * self.g - 2 * self.k - 2)


def fano_even_betti_numbers(params: EvenFanoParams) -> tuple[int, ...]:
    """Even Betti numbers (b_0, b_2, ..., b_{2d}), d = dimension: the
    coefficients of sum_{j=0..k+1} C(2g+1, j) q^{j(g-k-1)} [2g-k-j-1, k+1-j]_q,
    summed by exactpoly.gauss_sum.

    The vector is checked before it is returned by hodge.serre_violation,
    span d and index t named b_{2t}: it must fit in 0..d, be non-negative
    and be a palindrome (Serre duality).  A failure raises
    ConsistencyError with the rule's message, or, for a vector past d,
    names the first block that runs past index d.
    """
    g, k = params.g, params.k
    d = params.dimension
    blocks = [
        (math.comb(2 * g + 1, j), 2 * g - k - j - 1, k + 1 - j, (j * (g - k - 1),))
        for j in range(k + 2)
    ]
    low, coeffs = gauss_sum(blocks)
    top = low + len(coeffs) - 1
    violation = serre_violation(coeffs, low, d, lambda t: f"b_{{{2 * t}}}")
    if violation and top > d:
        # some block has a nonzero coefficient past degree d; name the first
        for j, (_, n, m, shifts) in enumerate(blocks):
            start, block = gauss_sum([(1, n, m, shifts)])
            if start + len(block) - 1 > d:
                raise ConsistencyError(
                    f"block j = {j} of (g, k) = ({g}, {k}) ends at degree "
                    f"{start + len(block) - 1} > {d}"
                )
    if violation:
        raise ConsistencyError(violation)
    return tuple([0] * low + coeffs + [0] * (d - top))


def fano_even_betti(params: EvenFanoParams, p: int) -> int:
    """Betti number b_{2p}; p may be any int, and p outside 0..dimension
    gives 0."""
    check_param("p", p)
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
    check_param("g", g, 2)
    check_param("k", k, 0, g - 1, "g-1")
    return math.comb(g, k + 1) * 4 ** (k + 1)
