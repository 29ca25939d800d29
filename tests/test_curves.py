import math
import operator

import pytest
from hypothesis import example, given, strategies as st
from list_routes import block_triples, kunneth, loop_block_diamond, sym_blocks, trim_blocks

from twoquadrics.curves import (
    block_diamond,
    block_e_polynomial,
    block_hochschild,
    curve_diamond,
    jacobian_diamond,
    macdonald_vectors,
    projective_space_diamond,
    sym_curve_diamond,
)
from twoquadrics.exactpoly import BiPoly, LaurentPoly
from twoquadrics.fano_even import EvenFanoParams, fano_even_betti_numbers, fano_even_diamond
from twoquadrics.fano_odd import OddFanoParams, fano_odd_blocks, fano_odd_diamond
from twoquadrics.hodge import ConsistencyError, HodgeDiamond
from twoquadrics.motivic import multiplicity_coefficients


def truncated_euler_series_coefficient(g, n):
    """Coefficient of t^n in (1-t)^{2g-2}, covering negative powers."""
    exponent = 2 * g - 2
    if exponent >= 0:
        return (-1) ** n * math.comb(exponent, n) if n <= exponent else 0
    return math.comb(n - exponent - 1, n)


def _mul_truncated(a, b, order):
    """Product of two truncated series with BiPoly-style dict coefficients;
    index = t-degree, truncated above `order`."""
    out = [dict() for _ in range(order + 1)]
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j in range(order - i + 1):
            bj = b[j]
            if not bj:
                continue
            tgt = out[i + j]
            for (p1, q1), c1 in ai.items():
                for (p2, q2), c2 in bj.items():
                    key = (p1 + p2, q1 + q2)
                    v = tgt.get(key, 0) + c1 * c2
                    if v:
                        tgt[key] = v
                    else:
                        del tgt[key]
    return out


def sym_diamond_by_series(g, n):
    """Oracle: h^{p,q} of Sym^n C is the coefficient of x^p y^q t^n in
    (1+xt)^g (1+yt)^g / ((1-t)(1-xyt)), expanded exactly with t truncated
    at degree n."""
    fx = [{(j, 0): math.comb(g, j)} if j <= g else {} for j in range(n + 1)]
    fy = [{(0, j): math.comb(g, j)} if j <= g else {} for j in range(n + 1)]
    geo = [{(0, 0): 1} for _ in range(n + 1)]
    diag = [{(j, j): 1} for j in range(n + 1)]
    series = _mul_truncated(_mul_truncated(fx, fy, n), _mul_truncated(geo, diag, n), n)
    top = series[n]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for (p, q), c in top.items():
        if c < 0 or not (0 <= p <= n and 0 <= q <= n):
            raise ConsistencyError(
                f"symmetric-power series gave h^{{{p},{q}}} = {c} for (g, n) = ({g}, {n})"
            )
        table[p][q] = c
    return HodgeDiamond(table)


def block_e_polynomial_full(g, vectors):
    """Oracle: the former route of block_e_polynomial, which accumulates
    every diagonal q - p = r - 2a, a = 0..r, mirror halves included."""
    vectors = [(r, low, coeffs) for r, low, coeffs in vectors if coeffs and 0 <= r <= 2 * g]
    if not vectors:
        return BiPoly.zero()
    comb_g = [math.comb(g, a) for a in range(g + 1)]
    w = max(min(r, 2 * g - r) for r, _, _ in vectors)
    base = min(low + max(0, r - g) for r, low, _ in vectors)
    size = max(low + len(coeffs) + min(g, r) for r, low, coeffs in vectors) - base
    diagonals = [[0] * size for _ in range(2 * w + 1)]
    for r, low, coeffs in vectors:
        for a in range(max(0, r - g), min(g, r) + 1):
            h = comb_g[a] * comb_g[r - a]
            diagonal = diagonals[r - 2 * a + w]
            span = slice(low + a - base, low + a - base + len(coeffs))
            scale = (-h if r % 2 else h).__mul__
            diagonal[span] = map(operator.add, diagonal[span], map(scale, coeffs))
    return BiPoly({
        (p + base, p + base + j - w): v
        for p, column in enumerate(zip(*diagonals))
        for j, v in enumerate(column)
        if v
    })


def dense_vectors(blocks):
    """(r, t, mult) blocks gathered into one dense vector over t per r."""
    dense = {}
    for r, t, mult in blocks:
        v = dense.setdefault(r, [])
        v.extend([0] * (t + 1 - len(v)))
        v[t] += mult
    return [(r, 0, v) for r, v in sorted(dense.items())]


@st.composite
def serre_paired_blocks(draw):
    """(g, d, blocks): each block (r, t, mult) with r + t <= d comes with
    its Serre dual (r, d-r-t, mult)."""
    g = draw(st.integers(0, 8))
    d = draw(st.integers(0, 8))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, d))
        t = draw(st.integers(0, d - r))
        mult = draw(st.integers(1, 5))
        blocks += [(r, t, mult), (r, d - r - t, mult)]
    return g, d, blocks


@st.composite
def padded_vectors(draw):
    """(g, vectors, trimmed, padded): block vectors (r, low, coeffs) with
    r up to 2g + 1 and signed coefficients, the same vectors with the zero
    ends stripped, and with zeros padded onto both ends; `low` moves with
    each change of the left end."""
    g = draw(st.integers(0, 5))
    vectors, trimmed, padded = [], [], []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, 2 * g + 1))
        low = draw(st.integers(-6, 6))
        coeffs = draw(st.lists(st.integers(-9, 9) | st.just(0), max_size=6))
        vectors.append((r, low, coeffs))
        nonzero = [e for e, c in enumerate(coeffs) if c]
        if nonzero:
            lo, hi = nonzero[0], nonzero[-1] + 1
            trimmed.append((r, low + lo, coeffs[lo:hi]))
        else:
            trimmed.append((r, low, []))
        left, right = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        padded.append((r, low - left, [0] * left + coeffs + [0] * right))
    return g, vectors, trimmed, padded


class TestBlockDiamond:
    @given(serre_paired_blocks())
    def test_betti_numbers_are_vandermonde_sums(self, case):
        g, d, blocks = case
        expected = [0] * (2 * d + 1)
        for r, t, mult in blocks:
            expected[r + 2 * t] += mult * math.comb(2 * g, r)
        assert block_diamond(g, d, dense_vectors(blocks)).betti_numbers() == tuple(expected)

    @given(serre_paired_blocks())
    def test_matches_the_block_loop(self, case):
        g, d, blocks = case
        assert block_diamond(g, d, dense_vectors(blocks)) == loop_block_diamond(g, d, blocks)

    @pytest.mark.parametrize("block", [(-1, 0, [1]), (0, -1, [1]), (2, 2, [1]), (0, 4, [1])])
    def test_block_outside_the_table_is_inconsistent(self, block):
        with pytest.raises(ConsistencyError, match="does not fit in dimension 3"):
            block_diamond(2, 3, [block])

    def test_failed_diamond_check_is_inconsistent(self):
        with pytest.raises(ConsistencyError, match=r"^Serre duality fails: h\^\{0,0\} = 1 but"):
            block_diamond(1, 1, [(0, 0, [1])])

    def test_negative_multiplicity_is_inconsistent(self):
        with pytest.raises(ConsistencyError, match=r"h\^\{0,0\} = -1 is not a non-negative"):
            block_diamond(1, 0, [(0, 0, [-1])])

    def test_blocks_past_the_top_exterior_power_are_not_fit_checked(self):
        # they vanish: the E-polynomial has no term for them
        assert block_diamond(1, 0, [(0, 0, [1]), (3, 9, [2])]) == HodgeDiamond(((1,),))


class TestLibraryDiamondsMatchTheBlockLoop:
    """Every diamond the library builds from blocks equals the former
    per-block loop (list_routes.loop_block_diamond) on the same blocks."""

    @pytest.mark.parametrize("g", range(2, 13))
    def test_fano_odd(self, g):
        for k in range(g - 1):
            params = OddFanoParams(g, k)
            blocks = block_triples(fano_odd_blocks(params))
            oracle = loop_block_diamond(g, params.dimension, blocks)
            assert fano_odd_diamond(params) == oracle, k

    @pytest.mark.parametrize("g", range(2, 13))
    def test_fano_even(self, g):
        for k in range(g - 1):
            params = EvenFanoParams(g, k)
            blocks = [(0, p, b) for p, b in enumerate(fano_even_betti_numbers(params)) if b]
            assert fano_even_diamond(params) == loop_block_diamond(g, params.dimension, blocks), k

    @pytest.mark.parametrize("g", range(9))
    def test_sym_curve(self, g):
        for n in range(13):
            blocks = [(r, t, 1) for r in range(min(n, 2 * g) + 1) for t in range(n - r + 1)]
            assert sym_curve_diamond(g, n) == loop_block_diamond(g, n, blocks), n

    @pytest.mark.parametrize("g", range(9))
    def test_jacobian(self, g):
        blocks = [(r, 0, 1) for r in range(2 * g + 1)]
        assert jacobian_diamond(g) == loop_block_diamond(g, g, blocks)


class TestBlockMeasures:
    """block_e_polynomial and block_hochschild against the diamond that
    the former per-block loop (list_routes.loop_block_diamond) builds from
    the same blocks."""

    @given(serre_paired_blocks())
    def test_e_polynomial_matches_the_diamond(self, case):
        g, d, blocks = case
        assert (
            block_e_polynomial(g, dense_vectors(blocks))
            == loop_block_diamond(g, d, blocks).e_polynomial()
        )

    @given(serre_paired_blocks())
    def test_hochschild_matches_the_diamond(self, case):
        g, d, blocks = case
        expected = loop_block_diamond(g, d, blocks).hochschild_polynomial()
        assert block_hochschild(g, dense_vectors(blocks)) == expected
        # twisted: the trimmed vectors start at the lowest t, not at 0
        assert block_hochschild(g, trim_blocks(dense_vectors(blocks))) == expected

    @pytest.mark.parametrize("g,d,vectors", [
        (3, 4, [(0, 1, (3, 5, 3)), (2, 1, (4,)), (1, 1, (7, 7))]),
        (2, 5, [(1, 2, (2,)), (3, 1, (1,)), (0, 1, (6, 0, 0, 6)), (5, 0, (9,))]),
        (4, 6, [(2, 1, (1, 2, 1)), (4, 1, (5,)), (6, 0, (3,))]),
    ])
    def test_hochschild_of_twisted_blocks_matches_the_diamond(self, g, d, vectors):
        expected = loop_block_diamond(g, d, block_triples(vectors)).hochschild_polynomial()
        assert block_hochschild(g, vectors) == expected

    @pytest.mark.parametrize("g", range(2, 9))
    def test_hochschild_of_fano_blocks_matches_the_diamond(self, g):
        for k in range(g - 1):
            params = OddFanoParams(g, k)
            blocks = fano_odd_blocks(params)
            diamond = loop_block_diamond(g, params.dimension, block_triples(blocks))
            assert block_hochschild(g, blocks) == diamond.hochschild_polynomial(), k

    @given(serre_paired_blocks(), st.integers(-5, 5))
    def test_offset_multiplies_by_a_power_of_xy(self, case, s):
        g, _, blocks = case
        vectors = dense_vectors(blocks)
        shifted = [(r, low + s, v) for r, low, v in vectors]
        assert block_e_polynomial(g, shifted) == BiPoly({(s, s): 1}) * block_e_polynomial(
            g, vectors
        )

    @given(padded_vectors())
    def test_e_polynomial_ignores_zero_ends(self, case):
        g, vectors, trimmed, padded = case
        expected = block_e_polynomial(g, vectors)
        assert block_e_polynomial(g, trimmed) == expected
        assert block_e_polynomial(g, padded) == expected

    @given(padded_vectors())
    @example((3, [(2, 0, [1, -2])], None, None))  # even r <= g
    @example((3, [(1, -1, [4]), (3, 2, [0, 5, 1])], None, None))  # odd r <= g
    @example((3, [(4, 0, [2, 7]), (5, -3, [1]), (6, 1, [3])], None, None))  # g < r <= 2g
    @example((2, [(5, 0, [1]), (3, 0, [1])], None, None))  # r = 2g + 1 beside r > g
    def test_mirror_half_matches_full_diagonals(self, case):
        g, vectors, _, _ = case
        assert block_e_polynomial(g, vectors) == block_e_polynomial_full(g, vectors)

    @pytest.mark.parametrize("g", range(2, 13))
    def test_both_decomposition_sides_match_full_diagonals(self, g):
        # the block vectors verify_decomposition measures, for every k
        for k in range(g - 1):
            fano = fano_odd_blocks(OddFanoParams(g, k))
            terms = [(i, *multiplicity_coefficients(g, k, i)) for i in range(k + 2)]
            sums = macdonald_vectors(g, [t for t in terms if t[2]])
            for side in (fano, sums):
                assert block_e_polynomial(g, side) == block_e_polynomial_full(g, side), (g, k)

    def test_blocks_past_the_top_exterior_power_vanish(self):
        assert block_e_polynomial(2, [(5, 0, [1, 2]), (0, -1, [])]) == BiPoly.zero()
        assert block_hochschild(2, [(5, 3, [1, 2])]) == LaurentPoly.zero()
        assert block_e_polynomial(2, [(4, 1, [3]), (5, 0, [1])]) == BiPoly({(3, 3): 3})


class TestCurveDiamond:
    def test_genus_zero_is_projective_line(self):
        assert curve_diamond(0) == projective_space_diamond(1)

    @pytest.mark.parametrize("g", [2, 4])
    def test_genus(self, g):
        dia = curve_diamond(g)
        assert dia.hodge_number(1, 0) == g
        assert dia.hodge_number(0, 0) == dia.hodge_number(1, 1) == 1

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            curve_diamond(-1)


class TestSymCurveDiamond:
    @pytest.mark.parametrize("g", range(13))
    def test_sym_curve_matches_the_inline_blocks(self, g):
        # the former inline Macdonald block list of sym_curve_diamond
        for n in range(41):
            assert macdonald_vectors(g, ((n, 0, (1,)),)) == tuple(sym_blocks(g, n)), n
            assert sym_curve_diamond(g, n) == block_diamond(g, n, sym_blocks(g, n)), n

    @pytest.mark.parametrize("g", [0, 1, 3])
    def test_zeroth_power_is_point(self, g):
        assert sym_curve_diamond(g, 0) == HodgeDiamond(((1,),))

    @pytest.mark.parametrize("g", [0, 2, 5])
    def test_first_power_is_curve(self, g):
        assert sym_curve_diamond(g, 1) == curve_diamond(g)

    def test_square_of_genus_four(self):
        dia = sym_curve_diamond(4, 2)
        assert dia.hodge_number(0, 0) == 1
        assert dia.hodge_number(1, 0) == 4
        assert dia.hodge_number(2, 0) == 6
        assert dia.hodge_number(1, 1) == 17

    @pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5])
    def test_euler_generating_function(self, g):
        for n in range(2 * g + 1):
            assert sym_curve_diamond(g, n).euler() == truncated_euler_series_coefficient(
                g, n
            ), (g, n)

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_first_betti_number_is_2g(self, g):
        for n in range(1, 6):
            assert sym_curve_diamond(g, n).betti(1) == 2 * g

    @pytest.mark.parametrize("g", [2, 4, 6])
    def test_top_holomorphic_forms(self, g):
        for n in range(1, g + 2):
            assert sym_curve_diamond(g, n).hodge_number(n, 0) == math.comb(g, n)

    @pytest.mark.parametrize("g", range(13))
    def test_matches_series_oracle(self, g):
        for n in range(2 * g + 4):
            assert sym_curve_diamond(g, n) == sym_diamond_by_series(g, n), n

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            sym_curve_diamond(-1, 2)
        with pytest.raises(ValueError):
            sym_curve_diamond(2, -1)


class TestJacobianDiamond:
    def test_genus_one_is_elliptic_curve(self):
        assert jacobian_diamond(1) == curve_diamond(1)

    def test_genus_two_betti(self):
        dia = jacobian_diamond(2)
        assert dia.betti(1) == 4
        assert dia.betti(2) == 6

    def test_genus_three_h11(self):
        assert jacobian_diamond(3).hodge_number(1, 1) == 9

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_betti_numbers_are_binomials(self, g):
        dia = jacobian_diamond(g)
        for m in range(2 * g + 1):
            assert dia.betti(m) == math.comb(2 * g, m)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_kunneth_power_of_elliptic_curve(self, g):
        power = HodgeDiamond(((1,),))
        for _ in range(g):
            power = kunneth(power, curve_diamond(1))
        assert jacobian_diamond(g) == power


class TestProjectiveSpaceDiamond:
    def test_point(self):
        assert projective_space_diamond(0) == HodgeDiamond(((1,),))

    def test_line(self):
        assert projective_space_diamond(1).rows() == ((1, 0), (0, 1))

    def test_three_space_e_polynomial(self):
        expected = BiPoly({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
        assert projective_space_diamond(3).e_polynomial() == expected

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            projective_space_diamond(-2)
