import json
import re

import pytest
from hypothesis import given, strategies as st
from list_routes import eval_at_one, kunneth, padded_serre_violation

from twoquadrics.curves import curve_diamond, sym_curve_diamond
from twoquadrics.exactpoly import BiPoly, LaurentPoly
from twoquadrics.fano_even import EvenFanoParams, fano_even_diamond
from twoquadrics.fano_odd import OddFanoParams, fano_odd_diamond
from twoquadrics.hodge import HodgeDiamond, serre_violation


def curve(g):
    return HodgeDiamond(((1, g), (g, 1)))


def betti_by_antidiagonal(dia):
    """Oracle: b_m as the sum of h^{p,q} over the antidiagonal p + q = m."""
    d = dia.dimension
    rows = dia.rows()
    return tuple(
        sum(rows[p][m - p] for p in range(max(0, m - d), min(d, m) + 1))
        for m in range(2 * d + 1)
    )


P1 = curve(0)
POINT = HodgeDiamond(((1,),))


@st.composite
def small_diamonds(draw):
    """Random valid diamonds: symmetric + dual tables of dimension <= 2."""
    d = draw(st.integers(0, 2))
    table = [[0] * (d + 1) for _ in range(d + 1)]
    for p in range(d + 1):
        for q in range(p, d + 1):
            v = draw(st.integers(0, 5))
            for a, b in {(p, q), (q, p), (d - p, d - q), (d - q, d - p)}:
                table[a][b] = v
    table[0][0] = 1
    table[d][d] = 1
    return HodgeDiamond(table)


@st.composite
def geometric_diamonds(draw):
    """Diamonds of curves, Sym^n C and odd and even Fano schemes, g <= 8."""
    kind = draw(st.sampled_from(("curve", "sym", "fano-odd", "fano-even")))
    if kind == "curve":
        return curve_diamond(draw(st.integers(0, 8)))
    if kind == "sym":
        return sym_curve_diamond(draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    g = draw(st.integers(2, 8))
    k = draw(st.integers(0, g - 2))
    if kind == "fano-odd":
        return fano_odd_diamond(OddFanoParams(g, k))
    return fano_even_diamond(EvenFanoParams(g, k))


@st.composite
def placed_counts(draw):
    """(values, low, span) for serre_violation: a list or tuple of small
    ints with inner and outer zeros at any low, negative ones included,
    and any span; half the time a palindrome placed at most two places
    off centre, so that each check is reached and the fast path passes."""
    kind = draw(st.sampled_from((list, tuple)))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=8))
        return kind(values), draw(st.integers(-3, 6)), draw(st.integers(0, 12))
    half = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=4))
    values = half + half[::-1][draw(st.integers(0, 1)):]
    low = draw(st.integers(-2, 4))
    span = max(0, 2 * low + len(values) - 1 + draw(st.integers(-2, 2)))
    return kind(values), low, span


class TestSerreRule:
    @given(placed_counts())
    def test_agrees_with_the_padded_oracle(self, case):
        values, low, span = case
        assert serre_violation(values, low, span, str) == padded_serre_violation(values, low, span)

    @pytest.mark.parametrize("values,low,span,message", [
        ((1, 2, 1), 0, 2, None),
        ((0, 1, 0), 1, 4, None),  # zero ends: the search finds no failure
        ((1, 1), -1, 1, "t-1..t0 does not fit in t0..t1"),
        ((1, 1), 1, 1, "t1..t2 does not fit in t0..t1"),
        ((1, -1, 1), 0, 2, "t1 = -1 is not a non-negative integer"),
        ((2, 0, 1), 0, 2, "Serre duality fails: t0 = 2 but t2 = 1"),
        ((1,), 1, 3, "Serre duality fails: t1 = 1 but t2 = 0"),
    ])
    def test_names_the_first_failure(self, values, low, span, message):
        assert serre_violation(values, low, span, lambda t: f"t{t}") == message


class TestConstructor:
    def test_rejects_hodge_asymmetry(self):
        message = "Hodge symmetry fails: h^{0,1} = 2 but h^{1,0} = 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HodgeDiamond(((1, 2), (3, 1)))

    def test_rejects_duality_violation(self):
        message = "Serre duality fails: h^{0,0} = 2 but h^{1,1} = 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HodgeDiamond(((2, 1), (1, 1)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match=r"^h\^\{0,1\} = -1 is not a non-negative integer$"):
            HodgeDiamond(((1, -1), (-1, 1)))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match=r"^h\^\{1,1\} = 1.0 is not of type int$"):
            HodgeDiamond(((1, 0), (0, 1.0)))

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError, match="^row 1 has length 1, expected 2$"):
            HodgeDiamond(((1, 0), (0,)))

    def test_rejects_bool_entries(self):
        # a bool is an int, so a table of bools used to pass and reach JSON
        # as true/false; the type check refuses it like 1.0
        with pytest.raises(ValueError, match=r"^h\^\{0,1\} = True is not of type int$"):
            HodgeDiamond(((1, True), (True, 1)))
        with pytest.raises(ValueError, match=r"^h\^\{0,0\} = False is not"):
            HodgeDiamond(((False,),))

    @given(small_diamonds(), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
    def test_table_check_agrees_with_entry_loop(self, dia, p, q, delta):
        # the diamond's own Hodge symmetry check comes first, then the rule:
        # its sign check, then Serre duality on the row-major list
        table = [list(row) for row in dia.rows()]
        p, q = p % len(table), q % len(table)
        table[p][q] += delta
        rows = tuple(map(tuple, table))
        d = len(rows) - 1
        cells = [(p, q, h) for p, row in enumerate(rows) for q, h in enumerate(row)]
        if any(h != rows[q][p] for p, q, h in cells):
            expected = "^Hodge symmetry fails: "
        elif any(h < 0 for _, _, h in cells):
            expected = r"^h\^\{\d,\d\} = -\d is not a non-negative integer$"
        elif any(h != rows[d - p][d - q] for p, q, h in cells):
            expected = "^Serre duality fails: "
        else:
            assert HodgeDiamond(rows).rows() == rows
            return
        with pytest.raises(ValueError, match=expected):
            HodgeDiamond(rows)

    def test_point(self):
        assert POINT.dimension == 0
        assert POINT.betti(0) == 1


class TestEPolynomial:
    def test_point(self):
        assert POINT.e_polynomial() == BiPoly({(0, 0): 1})

    @given(st.one_of(small_diamonds(), geometric_diamonds()))
    def test_diamond_is_read_back_from_its_e_polynomial(self, dia):
        assert HodgeDiamond.from_e_polynomial(dia.e_polynomial(), dia.dimension) == dia

    @pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 1), (1, -1)])
    def test_reader_rejects_a_term_outside_the_table(self, key):
        e = curve(2).e_polynomial() + BiPoly({key: 1})
        with pytest.raises(ValueError, match=r"does not fit in dimension 1"):
            HodgeDiamond.from_e_polynomial(e, 1)

    def test_reader_rejects_a_term_of_the_wrong_sign(self):
        # x and y have odd degree, so their coefficients must be <= 0
        e = BiPoly({(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1})
        with pytest.raises(ValueError, match=r"h\^\{0,1\} = -2 is not a non-negative"):
            HodgeDiamond.from_e_polynomial(e, 1)

    @pytest.mark.parametrize("g", [0, 1, 2, 5])
    def test_curve(self, g):
        expected = BiPoly({(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1})
        assert curve(g).e_polynomial() == expected

    def test_projective_line(self):
        assert P1.e_polynomial() == BiPoly({(0, 0): 1, (1, 1): 1})


class TestHochschild:
    def test_genus_two_curve(self):
        assert curve(2).hochschild_polynomial() == LaurentPoly({-1: 2, 0: 2, 1: 2})

    def test_point(self):
        assert POINT.hochschild_polynomial() == LaurentPoly({0: 1})

    def test_hodge_tate_diamond_is_constant(self):
        dia = HodgeDiamond(
            ((1, 0, 0), (0, 7, 0), (0, 0, 1))
        )
        assert dia.hochschild_polynomial() == LaurentPoly({0: 9})

    def test_palindromic(self):
        hh = curve(3).hochschild_polynomial()
        assert hh.coefficient(-1) == hh.coefficient(1)


class TestBettiEuler:
    def test_curve_b1(self):
        assert curve(4).betti(1) == 8

    def test_b0_is_one(self):
        for dia in (POINT, P1, curve(3)):
            assert dia.betti(0) == 1

    def test_range_error(self):
        with pytest.raises(ValueError):
            curve(2).betti(3)
        with pytest.raises(ValueError):
            curve(2).betti(-1)

    @pytest.mark.parametrize("g", [0, 1, 2, 7])
    def test_curve_euler(self, g):
        assert curve(g).euler() == 2 - 2 * g

    @given(st.one_of(small_diamonds(), geometric_diamonds()))
    def test_betti_numbers_match_antidiagonal_sums(self, dia):
        betti = betti_by_antidiagonal(dia)
        assert dia.betti_numbers() == betti
        assert [dia.betti(m) for m in range(len(betti))] == list(betti)
        assert dia.euler() == sum((-1) ** m * b for m, b in enumerate(betti))

    @given(small_diamonds())
    def test_euler_equals_e_polynomial_at_one_one(self, dia):
        assert dia.euler() == sum(c for _, c in dia.e_polynomial().items())

    @given(small_diamonds())
    def test_even_diamonds_match_hochschild_euler(self, dia):
        if any(dia.betti(m) for m in range(1, 2 * dia.dimension + 1, 2)):
            return
        assert eval_at_one(dia.hochschild_polynomial()) == dia.euler()


class TestKunneth:
    def test_point_is_identity(self):
        x = curve(3)
        assert kunneth(POINT, x) == x
        assert kunneth(x, POINT) == x

    def test_quadric_surface(self):
        quadric = kunneth(P1, P1)
        assert quadric.rows() == ((1, 0, 0), (0, 2, 0), (0, 0, 1))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_curve_square(self, g):
        square = kunneth(curve(g), curve(g))
        assert square.hodge_number(1, 0) == 2 * g
        assert square.hodge_number(1, 1) == 2 * g**2 + 2
        assert square.e_polynomial() == curve(g).e_polynomial() * curve(g).e_polynomial()

    @given(small_diamonds(), small_diamonds())
    def test_e_polynomial_is_multiplicative(self, a, b):
        assert kunneth(a, b).e_polynomial() == a.e_polynomial() * b.e_polynomial()


class TestRendering:
    def test_text_rows(self):
        text = curve(2).to_text()
        rows = [line.split() for line in text.splitlines()]
        assert rows == [["1"], ["2", "2"], ["1"]]

    def test_json_rendering(self):
        obj = P1.to_json_obj()
        assert obj == {"dimension": 1, "hodge": [[1, 0], [0, 1]]}
        json.dumps(obj)

    def test_text_is_centered(self):
        lines = curve(2).to_text().splitlines()
        assert lines[0] == " 1"
        assert lines[1] == "2 2"
