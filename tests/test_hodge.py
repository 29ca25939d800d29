import json

import pytest
from hypothesis import given, strategies as st
from list_routes import eval_at_one, kunneth

from twoquadrics.curves import curve_diamond, sym_curve_diamond
from twoquadrics.exactpoly import BiPoly, LaurentPoly
from twoquadrics.fano_even import EvenFanoParams, fano_even_diamond
from twoquadrics.fano_odd import OddFanoParams, fano_odd_diamond
from twoquadrics.hodge import (
    ConsistencyError,
    HodgeDiamond,
    _is_valid_table,
    _raise_first_violation,
)


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


class TestConstructor:
    def test_rejects_hodge_asymmetry(self):
        with pytest.raises(ValueError, match="Hodge symmetry"):
            HodgeDiamond(((1, 2), (3, 1)))

    def test_rejects_duality_violation(self):
        with pytest.raises(ValueError, match="Serre duality"):
            HodgeDiamond(((2, 1), (1, 1)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match=r"h\^\{0,1\} = -1 is not a non-negative"):
            HodgeDiamond(((1, -1), (-1, 1)))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match=r"h\^\{1,1\} = 1.0 is not a non-negative"):
            HodgeDiamond(((1, 0), (0, 1.0)))

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError, match="row 1 has length 1, expected 2"):
            HodgeDiamond(((1, 0), (0,)))

    def test_rejects_bool_entries(self):
        # a bool is an int, so a table of bools used to pass and reach JSON
        # as true/false; it is refused like 1.0, by both checks
        assert not _is_valid_table(((1, True), (True, 1)))
        with pytest.raises(ValueError, match=r"^h\^\{0,1\} = True is not a non-negative integer$"):
            HodgeDiamond(((1, True), (True, 1)))
        with pytest.raises(ValueError, match=r"^h\^\{0,0\} = False is not"):
            HodgeDiamond(((False,),))

    @given(small_diamonds(), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
    def test_fast_check_agrees_with_entry_loop(self, dia, p, q, delta):
        table = [list(row) for row in dia.rows()]
        p, q = p % len(table), q % len(table)
        table[p][q] += delta
        rows = tuple(map(tuple, table))
        expected = ConsistencyError if _is_valid_table(rows) else ValueError
        with pytest.raises(expected):
            _raise_first_violation(rows)

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
