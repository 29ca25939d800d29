import itertools
import operator
import pickle

import pytest
from hypothesis import example, given, strategies as st
from list_routes import (
    eval_at_one,
    hochschild_weights,
    list_multiplicity_coefficients,
    max_abs,
    trim_blocks,
    weighted_hochschild,
)

from twoquadrics.curves import macdonald_vectors, sym_curve_diamond
from twoquadrics.exactpoly import BiPoly, LaurentPoly
from twoquadrics.fano_odd import OddFanoParams, fano_odd_blocks, fano_odd_diamond
from twoquadrics.motivic import (
    MotivicExpression,
    VerificationReport,
    bgmn_multiplicity,
    multiplicity_at_one,
    multiplicity_coefficients,
    multiplicity_polynomial,
    verify_bgmn_crosscheck,
    verify_decomposition,
    verify_hochschild,
    verify_k0_identity,
)


def e_polynomial_by_products(expr):
    """Oracle: sum_i P_i(xy) E(Sym^i C) as BiPoly products and sums."""
    total = BiPoly.zero()
    for i, poly in expr.terms:
        total = total + BiPoly({(e, e): c for e, c in poly.items()}) * sym_curve_diamond(
            expr.genus, i
        ).e_polynomial()
    return total


def e_polynomial_by_diagonals(expr):
    """Oracle: the former dense route of MotivicExpression.e_polynomial.
    One column per diagonal q - p = -w..w; each nonzero h^{p,q} of
    Sym^i C adds (-1)^{p+q} h^{p,q} times the coefficients of P_i to its
    diagonal, starting at p + val(P_i)."""
    if not expr.terms:
        return BiPoly.zero()
    low = min(poly.valuation() for _, poly in expr.terms)
    size = max(poly.degree() + i for i, poly in expr.terms) - low + 1
    w = max(i for i, _ in expr.terms)
    diagonals = [[0] * size for _ in range(2 * w + 1)]
    for i, poly in expr.terms:
        val = poly.valuation()
        dense = [poly.coefficient(e) for e in range(val, poly.degree() + 1)]
        for p, row in enumerate(sym_curve_diamond(expr.genus, i).rows()):
            for q, h in enumerate(row):
                if not h:
                    continue
                diagonal = diagonals[q - p + w]
                span = slice(p + val - low, p + val - low + len(dense))
                scale = (-h if (p + q) % 2 else h).__mul__
                diagonal[span] = map(operator.add, diagonal[span], map(scale, dense))
    return BiPoly(
        ((p + low, p + low + j - w), v)
        for j, diagonal in enumerate(diagonals)
        for p, v in enumerate(diagonal)
        if v
    )


def block_vectors_by_scatter(expr):
    """Oracle: the former MotivicExpression.block_vectors, which added
    each P_i to T_r one term at a time from its dict."""
    if not expr.terms:
        return []
    low = min(poly.valuation() for _, poly in expr.terms)
    size = max(poly.degree() + i for i, poly in expr.terms) - low + 1
    polys = dict(expr.terms)
    tail = [0] * size  # T_r
    q = [0] * size  # Q_r
    vectors = []
    for r in range(max(polys), -1, -1):
        if r in polys:
            for e, c in polys[r].items():
                tail[e - low] += c
        # the shift drops only a zero: deg L Q_{r+1} <= max_i deg P_i L^i
        q = list(map(operator.add, tail, itertools.chain((0,), q)))
        if r <= 2 * expr.genus:
            vectors.append((r, low, q))
    return vectors


def dense_terms(g, k):
    """The nonzero multiplicities of (g, k) as dense (i, base, coeffs)."""
    terms = [(i, *multiplicity_coefficients(g, k, i)) for i in range(k + 2)]
    return [(i, base, coeffs) for i, base, coeffs in terms if coeffs]


def hochschild_by_diamonds(g, k):
    """Oracle: both Hochschild sides read off dense diamonds."""
    lhs = fano_odd_diamond(OddFanoParams(g, k)).hochschild_polynomial()
    rhs = LaurentPoly.zero()
    for i in range(k + 2):
        rhs = rhs + multiplicity_at_one(g, k, i) * sym_curve_diamond(g, i).hochschild_polynomial()
    return lhs, rhs


@st.composite
def motivic_expressions(draw):
    """sum_i P_i [Sym^i C] with g <= 4, indices i up to 2g + 3 (past the
    top exterior power) and exponents down to -6."""
    g = draw(st.integers(0, 4))
    polys = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=4).map(LaurentPoly)
    terms = draw(st.dictionaries(st.integers(0, 2 * g + 3), polys, max_size=4))
    return MotivicExpression.from_terms(g, terms)


@st.composite
def signed_terms(draw):
    """(g, terms, dense, cancelled): signed multiplicities P_i, g <= 4 and
    i up to 2g + 3, as a dict i -> P_i and as dense (i, low, coeffs) with
    zero ends drawn in.  For each r in `cancelled`, P_r is drawn as
    -sum_{i > r} P_i (1 + ... + L^{i-r}), so Q_r cancels to zero."""
    g = draw(st.integers(0, 4))
    indices = st.integers(0, 2 * g + 3)
    polys = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=4).map(LaurentPoly)
    terms = draw(st.dictionaries(indices, polys, max_size=4))
    cancelled = draw(st.sets(indices, max_size=2))
    for r in sorted(cancelled, reverse=True):
        q = LaurentPoly.zero()
        for i, poly in terms.items():
            if i > r:
                q = q + poly * LaurentPoly.power_sum(range(i - r + 1))
        terms[r] = -q
    dense = []
    for i, poly in terms.items():
        before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        low, top = (poly.valuation(), poly.degree()) if poly else (0, -1)
        coeffs = [poly.coefficient(e) for e in range(low - before, top + after + 1)]
        dense.append((i, low - before, coeffs))
    return g, terms, dense, cancelled


@st.composite
def fano_params(draw, max_g=16):
    g = draw(st.integers(2, max_g))
    return OddFanoParams(g, draw(st.integers(0, g - 2)))


def admissible(max_g):
    for g in range(2, max_g + 1):
        for k in range(g - 1):
            for i in range(k + 2):
                yield g, k, i


class TestMultiplicityPolynomial:
    def test_g2_k0(self):
        assert multiplicity_polynomial(2, 0, 0) == LaurentPoly({0: 1, 3: 1})
        assert multiplicity_polynomial(2, 0, 1) == LaurentPoly({1: 1})

    def test_g4_k1(self):
        assert multiplicity_polynomial(4, 1, 0) == LaurentPoly.power_sum(
            (0, 1, 2, 4, 5, 6, 8, 9, 10)
        )
        assert multiplicity_polynomial(4, 1, 1) == LaurentPoly.power_sum((2, 3, 6, 7))
        assert multiplicity_polynomial(4, 1, 2) == LaurentPoly({4: 1})

    def test_g3_k1_i1(self):
        assert multiplicity_polynomial(3, 1, 1) == LaurentPoly({1: 1, 4: 1})

    @pytest.mark.parametrize("g,k,i", [(1, 0, 0), (3, 2, 0), (2, 0, 2), (4, 1, -1)])
    def test_preconditions(self, g, k, i):
        with pytest.raises(ValueError):
            multiplicity_polynomial(g, k, i)

    def test_effectivity_up_to_g12(self):
        for g, k, i in admissible(12):
            assert multiplicity_polynomial(g, k, i).is_effective(), (g, k, i)

    def test_value_at_one_matches_closed_form_up_to_g15(self):
        for g, k, i in admissible(15):
            assert eval_at_one(multiplicity_polynomial(g, k, i)) == multiplicity_at_one(
                g, k, i
            ), (g, k, i)

    @pytest.mark.parametrize("g", range(2, 41))
    def test_matches_list_route(self, g):
        for k in range(g - 1):
            for i in range(k + 2):
                assert multiplicity_coefficients(g, k, i) == list_multiplicity_coefficients(
                    g, k, i
                ), (g, k, i)

    def test_width_exceeds_every_partial_sum(self, gauss_sum_widths):
        widths = gauss_sum_widths
        # every bracket at g <= 40 fits one limb; (47, 24, 0) is the first
        # that needs two
        for g, k, i in itertools.chain(admissible(40), [(47, 24, 0)]):
            seen = []
            assert multiplicity_coefficients(g, k, i) == list_multiplicity_coefficients(
                g, k, i, seen
            )
            assert max_abs(seen).bit_length() + 1 <= widths[-1], (g, k, i)
        assert widths[-1] == 128 and set(widths[:-1]) == {64}

    def test_span_pairing(self):
        # observed pattern: valuation + degree = dim F_k - i
        for g, k, i in admissible(8):
            poly = multiplicity_polynomial(g, k, i)
            d = (k + 1) * (2 * g - 2 * k - 1)
            assert poly.valuation() + poly.degree() == d - i, (g, k, i)


class TestMultiplicityAtOne:
    def test_g4_k1(self):
        assert multiplicity_at_one(4, 1, 0) == 9
        assert multiplicity_at_one(4, 1, 1) == 4
        assert multiplicity_at_one(4, 1, 2) == 1

    @pytest.mark.parametrize("g", range(2, 9))
    def test_top_symmetric_power_has_multiplicity_one(self, g):
        assert multiplicity_at_one(g, g - 2, g - 1) == 1

    def test_g2_k0_i1(self):
        assert multiplicity_at_one(2, 0, 1) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            multiplicity_at_one(2, 1, 0)


class TestBgmnMultiplicity:
    def test_examples(self):
        assert bgmn_multiplicity(3, 1) == LaurentPoly({1: 1, 4: 1})
        assert bgmn_multiplicity(2, 1) == LaurentPoly({1: 1})
        assert bgmn_multiplicity(2, 0) == LaurentPoly({0: 1, 3: 1})

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bgmn_multiplicity(2, 2)
        with pytest.raises(ValueError):
            bgmn_multiplicity(1, 0)


class TestMotivicExpression:
    def test_zero_terms_dropped(self):
        expr = MotivicExpression.from_terms(
            2, {0: LaurentPoly({0: 1}), 1: LaurentPoly.zero()}
        )
        assert expr.terms == ((0, LaurentPoly({0: 1})),)

    def test_decomposition_terms(self):
        expr = MotivicExpression.decomposition(4, 1)
        assert [i for i, _ in expr.terms] == [0, 1, 2]

    def test_e_polynomial_of_constant_term(self):
        expr = MotivicExpression.from_terms(3, {0: LaurentPoly({0: 1, 2: 1})})
        assert expr.e_polynomial() == BiPoly({(0, 0): 1, (2, 2): 1})

    def test_e_polynomial_matches_products_up_to_g12(self):
        for g in range(2, 13):
            for k in range(g - 1):
                expr = MotivicExpression.decomposition(g, k)
                assert expr.e_polynomial() == e_polynomial_by_products(expr), (g, k)

    def test_e_polynomial_matches_products_with_negative_exponents(self):
        expr = MotivicExpression.from_terms(
            3,
            {
                0: LaurentPoly({-2: 1, 1: -3}),
                1: LaurentPoly({4: -1}),
                2: LaurentPoly({-5: 2, 0: 7}),
            },
        )
        assert expr.e_polynomial() == e_polynomial_by_products(expr)

    def test_e_polynomial_of_empty_expression(self):
        assert MotivicExpression.from_terms(3, {}).e_polynomial() == BiPoly.zero()

    def test_effectivity_flags(self):
        expr = MotivicExpression.from_terms(
            2, {0: LaurentPoly({0: 1}), 1: LaurentPoly({1: -1})}
        )
        assert expr.effectivity() == ((0, True), (1, False))


    def test_immutable_with_value_equality(self):
        terms = ((0, LaurentPoly({0: 1})), (1, LaurentPoly({1: 2})))
        expr = MotivicExpression(genus=2, terms=terms)
        same = MotivicExpression(2, terms)
        assert expr == same and hash(expr) == hash(same)
        assert expr != MotivicExpression(3, terms)
        assert expr != (2, terms)
        assert repr(expr) == f"MotivicExpression(genus=2, terms={terms!r})"
        with pytest.raises(AttributeError):
            expr.genus = 3
        with pytest.raises(AttributeError):
            del expr.terms
        with pytest.raises(AttributeError):
            expr.extra = 1
        assert expr.genus == 2 and expr.terms == terms
        assert pickle.loads(pickle.dumps(expr)) == expr


class TestVerificationReport:
    def test_keywords_defaults_and_equality(self):
        report = VerificationReport(
            identity="k0-identity", params={"g": 2}, status="verified", lhs=1, rhs=1
        )
        assert (report.effectivity, report.observations, report.elapsed_ms) == ((), {}, 0)
        other = VerificationReport("k0-identity", {"g": 2}, "verified", 1, 1)
        assert report == other
        assert report.observations is not other.observations
        other.elapsed_ms = 5
        assert report != other
        with pytest.raises(TypeError):
            hash(report)
        assert pickle.loads(pickle.dumps(other)) == other
        assert repr(report).startswith("VerificationReport(identity='k0-identity', ")


class TestVerifiers:
    @pytest.mark.parametrize("g,k", [(2, 0), (4, 1), (5, 3)])
    def test_decomposition_instances(self, g, k):
        report = verify_decomposition(g, k)
        assert report.verified
        assert report.lhs == report.rhs
        assert all(ok for _, ok in report.effectivity)

    def test_decomposition_sweep_up_to_g12(self):
        for g in range(2, 13):
            for k in range(g - 1):
                assert verify_decomposition(g, k).verified, (g, k)

    def test_k0_g2_right_hand_side(self):
        report = verify_k0_identity(2)
        assert report.verified
        expected = BiPoly(
            {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (2, 1): -2, (1, 2): -2}
        )
        assert report.rhs == expected

    @pytest.mark.parametrize("g", [3, 10])
    def test_k0_larger_genus(self, g):
        assert verify_k0_identity(g).verified

    @pytest.mark.parametrize("g", range(2, 13))
    def test_bgmn_crosscheck(self, g):
        report = verify_bgmn_crosscheck(g)
        assert report.verified
        assert len(report.lhs) == g

    def test_hochschild_g2_k0(self):
        report = verify_hochschild(2, 0)
        assert report.verified
        assert report.lhs == LaurentPoly({-1: 2, 0: 4, 1: 2})

    @pytest.mark.parametrize("g,k", [(4, 1), (6, 2)])
    def test_hochschild_instances(self, g, k):
        assert verify_hochschild(g, k).verified

    def test_hochschild_multiplicities_interchangeable(self):
        # substituting the evaluated polynomials for the closed form gives
        # the identical right-hand side
        for g, k in [(3, 1), (5, 2)]:
            closed = [multiplicity_at_one(g, k, i) for i in range(k + 2)]
            evaluated = [
                eval_at_one(multiplicity_polynomial(g, k, i)) for i in range(k + 2)
            ]
            assert closed == evaluated

    def test_report_metadata(self):
        report = verify_decomposition(3, 1)
        assert report.identity == "hyperelliptic-decomposition"
        assert report.params == {"g": 3, "k": 1}
        assert report.status == "verified"
        assert report.elapsed_ms >= 0
        assert "multiplicity_spans" in report.observations


class TestBlockRoute:
    """verify_decomposition and verify_hochschild measure block vectors;
    the dense diamond routes are their oracles."""

    @staticmethod
    def check_decomposition(g, k):
        report = verify_decomposition(g, k)
        assert report.lhs == fano_odd_diamond(OddFanoParams(g, k)).e_polynomial(), (g, k)
        expr = MotivicExpression.decomposition(g, k)
        assert report.rhs == e_polynomial_by_diagonals(expr), (g, k)

    @pytest.mark.parametrize("g", range(2, 15))
    def test_decomposition_sides_match_dense_routes(self, g):
        for k in range(g - 1):
            self.check_decomposition(g, k)

    @pytest.mark.parametrize("g,k", [(30, 14), (34, 16)])
    def test_decomposition_sides_match_dense_routes_deep(self, g, k):
        self.check_decomposition(g, k)

    @pytest.mark.parametrize("g", range(2, 15))
    def test_hochschild_sides_match_dense_route(self, g):
        for k in range(g - 1):
            report = verify_hochschild(g, k)
            assert (report.lhs, report.rhs) == hochschild_by_diamonds(g, k), (g, k)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_hochschild_sides_match_the_running_weights(self, g):
        # the former route: the Fano blocks summed to (r, sum(coeffs)), and
        # the sum side's running weights, in the former (r, weight) measure
        for k in range(g - 1):
            report = verify_hochschild(g, k)
            fano = [(r, sum(coeffs)) for r, _, coeffs in fano_odd_blocks(OddFanoParams(g, k))]
            assert report.lhs == weighted_hochschild(g, fano), (g, k)
            assert report.rhs == weighted_hochschild(g, hochschild_weights(g, k)), (g, k)

    @given(motivic_expressions())
    def test_e_polynomial_matches_products(self, expr):
        expected = e_polynomial_by_products(expr)
        assert expr.e_polynomial() == expected
        assert e_polynomial_by_diagonals(expr) == expected


class TestSharedMeasure:
    """verify_decomposition measures the sum side only when its block
    vectors differ from the Fano side's."""

    @pytest.mark.parametrize("g", range(2, 13))
    def test_rhs_is_the_measured_sum_side(self, g):
        for k in range(g - 1):
            report = verify_decomposition(g, k)
            assert report.rhs == MotivicExpression.decomposition(g, k).e_polynomial(), (g, k)

    @pytest.fixture
    def planted(self, plant_kernel):
        # (g, k) = (3, 1) has dimension 6; q^6 and q^-6 in the j = 3
        # kernel add wedge^0 H^1(-0) and its Serre dual wedge^0 H^1(-6):
        # a vector that passes every check of fano_odd_blocks but is not
        # the sum side's
        plant_kernel(3, {6: 1, -6: 1})

    def test_different_vectors_measure_both_sides(self, planted):
        report = verify_decomposition(3, 1)
        assert report.status == "failed"
        assert report.rhs is not report.lhs
        assert report.rhs == MotivicExpression.decomposition(3, 1).e_polynomial()
        assert report.lhs - report.rhs == BiPoly({(0, 0): 1, (6, 6): 1})

    @given(fano_params())
    def test_block_vectors_are_non_negative_and_serre_symmetric(self, params):
        d = params.dimension
        for r, low, coeffs in fano_odd_blocks(params):
            # the dense vector over t = 0..d-r
            v = [0] * (d - r + 1)
            v[low : low + len(coeffs)] = coeffs
            assert low >= 0 and len(v) == d - r + 1
            assert min(v) >= 0
            assert v == v[::-1]

    @given(fano_params())
    def test_multiplicity_coefficients_sum_to_the_value_at_one(self, params):
        g, k = params.g, params.k
        for i in range(k + 2):
            total = sum(c for _, c in multiplicity_polynomial(g, k, i).items())
            assert total == multiplicity_at_one(g, k, i), (g, k, i)


class TestDenseRoute:
    """verify_decomposition reads the dense multiplicities and the shared
    dense Q_r recursion; the LaurentPoly route and the dict scatter of
    the former block_vectors are their oracles."""

    @pytest.mark.parametrize("g", range(2, 21))
    def test_coefficients_match_the_polynomial(self, g):
        for k in range(g - 1):
            for i in range(k + 2):
                base, coeffs = multiplicity_coefficients(g, k, i)
                poly = multiplicity_polynomial(g, k, i)
                assert coeffs[0] and coeffs[-1], (g, k, i)
                assert (base, base + len(coeffs) - 1) == (poly.valuation(), poly.degree())
                assert [(base + e, c) for e, c in enumerate(coeffs) if c] == list(poly.items())

    @pytest.mark.parametrize("g", range(2, 21))
    def test_recursion_matches_the_scatter(self, g):
        for k in range(g - 1):
            expr = MotivicExpression.decomposition(g, k)
            expected = trim_blocks(block_vectors_by_scatter(expr))
            assert macdonald_vectors(g, dense_terms(g, k)) == expected, (g, k)
            assert expr.block_vectors() == expected, (g, k)

    @pytest.mark.parametrize("g", range(2, 21))
    def test_effectivity_and_spans_match_the_polynomial_route(self, g):
        for k in range(g - 1):
            report = verify_decomposition(g, k)
            expr = MotivicExpression.decomposition(g, k)
            assert report.effectivity == expr.effectivity(), (g, k)
            spans = [[i, poly.valuation(), poly.degree()] for i, poly in expr.terms]
            assert report.observations["multiplicity_spans"] == spans, (g, k)

    @given(motivic_expressions())
    def test_block_vectors_match_the_scatter(self, expr):
        assert expr.block_vectors() == trim_blocks(block_vectors_by_scatter(expr))

    @given(signed_terms())
    # P_0 = -(1 + L) cancels Q_0 = P_0 + P_1 (1 + L) to zero
    @example((2, {0: LaurentPoly({0: -1, 1: -1}), 1: LaurentPoly({0: 1})},
              [(0, 0, [-1, -1]), (1, 0, [1])], {0}))
    def test_recursion_keeps_the_block_form(self, case):
        g, terms, dense, cancelled = case
        blocks = macdonald_vectors(g, dense)
        assert type(blocks) is tuple
        rs = [r for r, _, _ in blocks]
        assert rs == sorted(set(rs)) and all(0 <= r <= 2 * g for r in rs)
        assert not cancelled & set(rs)
        for _, _, coeffs in blocks:
            assert type(coeffs) is tuple and coeffs and coeffs[0] and coeffs[-1]
        expr = MotivicExpression.from_terms(g, terms)
        assert blocks == trim_blocks(block_vectors_by_scatter(expr))

    def test_empty_expression_has_no_blocks(self):
        assert macdonald_vectors(3, []) == ()
        assert MotivicExpression.from_terms(3, {}).block_vectors() == ()
