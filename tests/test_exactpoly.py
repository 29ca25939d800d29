import functools
import importlib.util
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from list_routes import (
    eval_at_one,
    gauss_binomial,
    list_gauss_coefficients,
    list_gauss_sum,
    max_abs,
    pack,
)

from twoquadrics import exactpoly, fano_odd
from twoquadrics.curves import block_e_polynomial, block_hochschild, macdonald_vectors
from twoquadrics.exactpoly import (
    BiPoly,
    ConsistencyError,
    InexactDivisionError,
    LaurentPoly,
    _gauss_entry,
    _nonzero_ends,
    _pascal_table,
    binomial,
    exact_divide,
    gauss_coefficients,
    gauss_sum,
    packed_width,
    unpack,
)
from twoquadrics.fano_odd import OddFanoParams, fano_odd_blocks, multiplicity_kernel
from twoquadrics.motivic import multiplicity_coefficients, multiplicity_polynomial


def product_formula_gauss(n, m):
    """Independent oracle: expand prod_{l=0}^{m-1} (1-q^{n-l}) on a dense
    coefficient list and divide out prod_{l=1}^{m} (1-q^l) synthetically."""
    if m < 0:
        return []
    if m == 0:
        return [1]
    if n < m:
        return []
    num = [1]
    for l in range(m):
        e = n - l
        out = [0] * (len(num) + e)
        for idx, c in enumerate(num):
            out[idx] += c
            out[idx + e] -= c
        num = out
    for l in range(1, m + 1):
        deg = len(num) - 1 - l
        quot = [0] * (deg + 1)
        for idx in range(deg + 1):
            quot[idx] = num[idx] + (quot[idx - l] if idx >= l else 0)
        for idx in range(deg + 1, len(num)):
            assert num[idx] + (quot[idx - l] if 0 <= idx - l <= deg else 0) == 0
        num = quot
    return num


@functools.cache
def gauss_by_entries(n, m):
    """Oracle: the former Pascal step of gauss_coefficients, one Python
    loop iteration per entry of each term."""
    if m < 0:
        return ()
    if m == 0:
        return (1,)
    if n < m:
        return ()
    low = gauss_by_entries(n - 1, m - 1)
    high = gauss_by_entries(n - 1, m)
    out = [0] * (m * (n - m) + 1)
    for e, c in enumerate(low):
        out[e] += c
    for e, c in enumerate(high):
        out[e + m] += c
    return tuple(out)


laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-9, 9), max_size=6
).map(BiPoly)


def same_class(n):
    """n polynomials of one class, LaurentPoly or BiPoly."""
    return st.sampled_from([bipolys, laurent_polys]).flatmap(lambda polys: st.tuples(*[polys] * n))


def assert_canonical(p):
    """The class invariant: terms stored in ascending key order."""
    keys = list(p._coeffs)
    assert keys == sorted(keys), keys
    assert p.items() == tuple(sorted(p._coeffs.items()))


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({0: 1, 3: 0, -2: 0}) == LaurentPoly({0: 1})
        assert not LaurentPoly({5: 0})

    def test_items_sorted(self):
        p = LaurentPoly({3: 1, -2: 4, 0: -1})
        assert p.items() == ((-2, 4), (0, -1), (3, 1))

    def test_shift_and_degree(self):
        p = LaurentPoly({0: 1, 2: 1}).shift(-3)
        assert p.items() == ((-3, 1), (-1, 1))
        assert p.degree() == -1
        assert p.valuation() == -3

    def test_degree_of_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly().degree()

    def test_power_sum_accumulates(self):
        assert LaurentPoly.power_sum([5, 5, 2]) == LaurentPoly({5: 2, 2: 1})

    def test_scalar_multiplication(self):
        p = LaurentPoly({1: 2, -1: 3})
        assert 2 * p == LaurentPoly({1: 4, -1: 6})
        assert p * 0 == LaurentPoly.zero()

    def test_pretty(self):
        assert LaurentPoly({0: 1, 3: 1}).pretty("L") == "1 + L^3"
        assert LaurentPoly({-1: 2, 1: -1}).pretty("t") == "2*t^-1 - t"
        assert LaurentPoly().pretty() == "0"


class TestGaussBinomial:
    def test_example_5_2(self):
        assert gauss_binomial(5, 2) == LaurentPoly(
            {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
        )

    @pytest.mark.parametrize("n", [-4, -1, 0, 3, 17])
    def test_lower_index_zero(self, n):
        assert gauss_binomial(n, 0) == LaurentPoly({0: 1})

    def test_negative_lower_index(self):
        assert gauss_binomial(3, -1) == LaurentPoly.zero()

    def test_example_4_1(self):
        assert gauss_binomial(4, 1) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})

    def test_upper_smaller_than_lower(self):
        assert gauss_binomial(2, 5) == LaurentPoly.zero()

    def test_negative_upper_with_positive_lower_rejected(self):
        with pytest.raises(ValueError):
            gauss_binomial(-1, 1)

    def test_matches_product_formula_up_to_40(self):
        for n in range(41):
            for m in range(n + 1):
                assert list(gauss_coefficients(n, m)) == product_formula_gauss(n, m)

    def test_matches_per_entry_pascal_step_below_60(self):
        for n in range(60):
            for m in range(-1, n + 3):
                assert gauss_coefficients(n, m) == gauss_by_entries(n, m), (n, m)

    @pytest.fixture
    def fresh_gauss_caches(self):
        """Drop the large tables a deep test builds once it is done."""
        yield
        gauss_coefficients.cache_clear()
        _pascal_table.cache_clear()
        gauss_by_entries.cache_clear()

    def test_deep_table_matches_per_entry_pascal_step(self, fresh_gauss_caches):
        # [1100, 3] needs 1098 diagonals; the oracle is filled row by row
        # so that its own recursion stays one call deep
        for n in range(1101):
            for m in range(4):
                gauss_by_entries(n, m)
        assert gauss_coefficients(1100, 3) == gauss_by_entries(1100, 3)

    def test_pascal_recurrence_up_to_40(self):
        q = LaurentPoly({1: 1})
        for n in range(1, 41):
            for m in range(1, n + 1):
                lhs = gauss_binomial(n, m)
                rhs = gauss_binomial(n - 1, m - 1) + q.shift(m - 1) * gauss_binomial(n - 1, m)
                assert lhs == rhs, (n, m)

    def test_symmetry_up_to_40(self):
        for n in range(41):
            for m in range(n + 1):
                assert gauss_coefficients(n, m) == gauss_coefficients(n, n - m)

    def test_value_at_one_is_binomial_up_to_40(self):
        for n in range(41):
            for m in range(n + 1):
                assert eval_at_one(gauss_binomial(n, m)) == binomial(n, m)

    def test_degree_palindromy_nonnegativity_up_to_40(self):
        for n in range(41):
            for m in range(n + 1):
                coeffs = gauss_coefficients(n, m)
                assert len(coeffs) == m * (n - m) + 1
                assert all(c > 0 for c in coeffs)
                assert coeffs == coeffs[::-1]


def trimmed(coeffs):
    """coeffs without its trailing zeros: the one decode of unpack."""
    ends = list(coeffs)
    while ends and not ends[-1]:
        ends.pop()
    return ends


class TestPackedCore:
    """pack/unpack, the width rule and the packed Pascal table, against
    the former list routes."""

    @pytest.mark.parametrize("width", [64, 128, 192])
    def test_round_trip_at_the_digit_extremes(self, width):
        top = (1 << (width - 1)) - 1
        for coeffs in (
            [top, -top, 0, top, -top],
            [-top] * 4,
            [top] * 4,
            [0, top, 0, -top, 0],
            [1, -1, 1 << (width - 2), -(1 << (width - 2))],
            [-1],
            [],
        ):
            x = pack(coeffs, width)
            assert x == sum(c << (width * e) for e, c in enumerate(coeffs))
            assert unpack(x, width) == trimmed(coeffs)

    @given(st.sampled_from([64, 128, 192]), st.data())
    def test_round_trip(self, width, data):
        top = (1 << (width - 1)) - 1
        coeffs = data.draw(st.lists(st.integers(-top, top), max_size=8))
        assert unpack(pack(coeffs, width), width) == trimmed(coeffs)

    def test_digits_outside_the_width_are_rejected(self):
        with pytest.raises(OverflowError):
            pack([1 << 63], 64)
        with pytest.raises(OverflowError):
            pack([-(1 << 127) - 1], 128)

    @pytest.mark.parametrize(
        "bound,width",
        [(0, 64), (1, 64), ((1 << 63) - 1, 64), (1 << 63, 128), ((1 << 127) - 1, 128),
         (1 << 127, 192)],
    )
    def test_width_leaves_one_spare_bit(self, bound, width):
        assert packed_width(bound) == width
        assert bound < 1 << (width - 1)

    def test_gauss_matches_list_table_up_to_80(self):
        for n in range(81):
            for m in range(-1, n + 2):
                assert gauss_coefficients(n, m) == list_gauss_coefficients(n, m), (n, m)

    def test_gauss_width_exceeds_the_largest_coefficient(self):
        for n in range(81):
            for m in range(n + 1):
                width = packed_width(binomial(n, m))
                assert max(list_gauss_coefficients(n, m)).bit_length() + 1 <= width

    def test_table_rejects_a_width_too_narrow(self):
        # C(70, 35) ~ 2^66.1
        c = binomial(70, 35)
        message = r"^\[70, 35\]_q does not fit digits of width 64$"
        with pytest.raises(ConsistencyError, match=message):
            _gauss_entry(70, 35, c, 64)
        assert unpack(_gauss_entry(70, 35, c, 128), 128) == list(list_gauss_coefficients(70, 35))

    def test_a_chosen_width_too_narrow_is_internal(self, monkeypatch, cold_caches):
        # a width gauss_sum picked itself must fit by its proof, so a miss
        # is the library's fault, not the caller's
        message = r"^\[70, 35\]_q does not fit digits of width 64$"
        with pytest.raises(ConsistencyError, match=message):
            _gauss_entry(70, 35, binomial(70, 35), 64)
        monkeypatch.setattr(exactpoly, "packed_width", lambda bound: 64)
        with pytest.raises(ConsistencyError, match=message):
            gauss_sum([(1, 70, 35, (0,))])

    @pytest.mark.parametrize("width", [64, 128])
    def test_edges_agree_with_binomial(self, width):
        # m < 0, m = 0, n < m, m = n and negative n all occur here
        for n in range(-2, 10):
            for m in range(-2, 11):
                if n < 0 and m >= 1:
                    # the entry's C(n, m) comes from binomial, which refuses it
                    with pytest.raises(ValueError, match=f"^n = {n}: need n >= 0$"):
                        _gauss_entry(n, m, binomial(n, m), width)
                    continue
                coeffs = unpack(_gauss_entry(n, m, binomial(n, m), width), width)
                assert coeffs == list(gauss_coefficients(n, m)), (n, m)
                assert sum(coeffs) == binomial(n, m), (n, m)

    def test_clearing_the_package_caches_empties_the_packed_tables(self):
        # the benchmark's per-layer pass clears every functools cache of the
        # package between calls; a packed table that survived would make
        # the traced numbers measure warm tables
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        _gauss_entry(30, 12, binomial(30, 12), 64)
        _gauss_entry(70, 35, binomial(70, 35), 128)
        fano_odd.kernel_coefficients(5, 9)
        assert _pascal_table(64) and fano_odd.kernel_coefficients.cache_info().currsize
        tracing.clear_caches()
        assert _pascal_table.cache_info().currsize == 0
        assert fano_odd.kernel_coefficients.cache_info().currsize == 0
        assert _pascal_table(64) == {} and _pascal_table(128) == {}


# groups (w, n, m, shifts) of gauss_sum: n down to -1, where only m <= 0
# is defined, and m from -1 (a vanishing binomial, whose shifts may be
# negative) up past n (vanishing too)
gauss_groups = st.lists(
    st.integers(-1, 14).flatmap(
        lambda n: st.tuples(
            st.integers(-(1 << 70), 1 << 70),
            st.just(n),
            st.integers(-1, 0) if n < 0 else st.integers(-1, n + 1),
            st.lists(st.integers(0, 12), max_size=4),
        )
    ).map(lambda g: g if binomial(g[1], g[2]) else (*g[:3], tuple(s - 5 for s in g[3]))),
    max_size=6,
)


class TestGaussSum:
    """gauss_sum against the list-route sum of list_gauss_coefficients,
    and its width against every partial sum that route forms."""

    @given(gauss_groups)
    def test_matches_list_route(self, groups):
        assert gauss_sum(groups) == list_gauss_sum(groups)

    @given(gauss_groups)
    def test_width_exceeds_every_partial_sum(self, groups):
        widths = []

        def recorded(bound):
            widths.append(packed_width(bound))
            return widths[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactpoly, "packed_width", recorded)
            gauss_sum(groups)
        seen = []
        list_gauss_sum(groups, seen)
        assert max_abs(seen).bit_length() + 1 <= widths[0]

    def test_ends_are_trimmed(self):
        # 1 - q^2 [2, 1] - q^5 = 1 - q^2 - q^3 - q^5: ends and interior zeros
        assert gauss_sum([(1, 0, 0, (0,)), (-1, 2, 1, (2,)), (-1, 5, 0, (5,))]) == (
            0, [1, 0, -1, -1, 0, -1]
        )
        # q^3 [3, 1] - q^3 [3, 1] + q^4 [1, 1]: the zero low digits are dropped
        assert gauss_sum([(1, 3, 1, (3,)), (-1, 3, 1, (3,)), (2, 1, 1, (4,))]) == (4, [2])
        assert gauss_sum([(1, 3, 1, (0,)), (-1, 3, 1, (0,))]) == (0, [])
        assert gauss_sum([]) == (0, [])

    def test_vanishing_groups_may_have_negative_shifts(self):
        assert gauss_sum([(1, 4, -1, (-3,)), (5, 2, 3, (-1,)), (1, 2, 1, (1,))]) == (1, [1, 1])
        with pytest.raises(ValueError):
            gauss_sum([(1, 2, 1, (-1,))])


class TestExactDivide:
    def test_factorization(self):
        num = LaurentPoly({0: 1, 4: -1})
        den = LaurentPoly({0: 1, 2: -1})
        assert exact_divide(num, den) == LaurentPoly({0: 1, 2: 1})

    def test_geometric_sum(self):
        num = LaurentPoly({0: 1, 8: -1})
        den = LaurentPoly({0: 1, 2: -1})
        assert exact_divide(num, den) == LaurentPoly({0: 1, 2: 1, 4: 1, 6: 1})

    def test_inexact_division_rejected(self):
        with pytest.raises(InexactDivisionError):
            exact_divide(LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1}))

    def test_inexact_coefficient_rejected(self):
        with pytest.raises(InexactDivisionError):
            exact_divide(LaurentPoly({1: 3}), LaurentPoly({0: 2}))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(LaurentPoly({0: 1}), LaurentPoly.zero())

    def test_zero_numerator(self):
        assert exact_divide(LaurentPoly.zero(), LaurentPoly({3: 2})) == LaurentPoly.zero()

    def test_laurent_shift_division(self):
        num = LaurentPoly({-3: 1, 1: 1})
        den = LaurentPoly({-2: 1})
        assert exact_divide(num, den) == LaurentPoly({-1: 1, 3: 1})

    @given(laurent_polys, laurent_polys)
    def test_divide_undoes_multiply(self, a, b):
        if not b:
            return
        assert exact_divide(a * b, b) == a


class TestEvalAtOne:
    def test_qbinomial_value(self):
        assert eval_at_one(gauss_binomial(5, 2)) == 10

    def test_zero(self):
        assert eval_at_one(LaurentPoly.zero()) == 0

    def test_laurent_sum(self):
        assert eval_at_one(LaurentPoly({-3: 1, -1: 1, 1: 1, 3: 1})) == 4


class TestBinomial:
    @pytest.mark.parametrize(
        "n,m,value",
        [(3, 2, 3), (-1, 0, 1), (1, 2, 0), (0, 0, 1), (7, -2, 0), (-5, -1, 0), (6, 3, 20)],
    )
    def test_values(self, n, m, value):
        assert binomial(n, m) == value

    def test_negative_upper_with_positive_lower_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 1)


class TestBiPoly:
    def test_pretty(self):
        p = BiPoly({(0, 0): 1, (1, 1): -1, (2, 0): 3})
        assert p.pretty() == "1 - x*y + 3*x^2"

    @given(same_class(3))
    def test_distributivity(self, polys):
        a, b, c = polys
        assert a * (b + c) == a * b + a * c

    @given(same_class(2))
    def test_commutativity(self, polys):
        a, b = polys
        assert a * b == b * a
        assert a + b == b + a

    @given(same_class(3))
    def test_associativity(self, polys):
        a, b, c = polys
        assert (a * b) * c == a * (b * c)

    def test_list_keys_become_tuples(self):
        p = BiPoly([([1, 0], 2), ((1, 0), 1)])
        assert p.items() == (((1, 0), 3),)
        assert p == BiPoly({(1, 0): 3})


class TestSharedCore:
    @given(same_class(2))
    def test_subtraction_adds_the_negative(self, polys):
        a, b = polys
        assert a - b == a + (-b)
        assert not a - a

    @given(same_class(2))
    def test_equal_polynomials_hash_equal(self, polys):
        a, b = polys
        c = (a + b) - b
        assert c == a
        assert hash(c) == hash(a)
        reordered = type(a)(a.items()[::-1])
        assert reordered == a
        assert hash(reordered) == hash(a)

    @given(same_class(1))
    def test_repr_round_trips(self, polys):
        (a,) = polys
        assert eval(repr(a), {"LaurentPoly": LaurentPoly, "BiPoly": BiPoly}) == a

    @given(laurent_polys, bipolys)
    def test_classes_do_not_mix(self, p, b):
        assert p != b
        assert b != p
        for x, y in ((p, b), (b, p)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(x, y)

    # a bool is an int, but would be stored and written to JSON as True
    BAD_EXPONENTS = [1.5, 2.0, "2", Fraction(3, 1), None, True, False]
    BAD_COEFFICIENTS = [0.5, 1.0, 0.0, Fraction(1, 2), Fraction(2, 1), "1"]

    @staticmethod
    def bad_id(value):
        return f"{type(value).__name__}-{value}"

    @pytest.mark.parametrize("cls", [LaurentPoly, BiPoly])
    @pytest.mark.parametrize("bad", BAD_EXPONENTS, ids=bad_id)
    def test_non_int_exponent_rejected(self, cls, bad):
        key = bad if cls is LaurentPoly else (bad, 0)
        with pytest.raises(TypeError, match="exponents must be ints"):
            cls({key: 1})
        if cls is BiPoly:
            with pytest.raises(TypeError, match="exponents must be ints"):
                cls([((0, bad), 1)])

    @pytest.mark.parametrize("bad", BAD_EXPONENTS, ids=bad_id)
    @pytest.mark.parametrize("poly", [LaurentPoly({1: 2}), LaurentPoly.zero()], ids=repr)
    def test_non_int_shift_rejected(self, poly, bad):
        # the shift lands in every exponent, so it obeys the exponents' rule
        with pytest.raises(TypeError, match="exponents must be ints"):
            poly.shift(bad)

    # BiPoly keys that are not (p, q) pairs at all
    @pytest.mark.parametrize("key", [(1, 2, 3), (1,), (), 7], ids=repr)
    def test_bipoly_key_that_is_not_a_pair_rejected(self, key):
        with pytest.raises(TypeError, match=r"^BiPoly exponents must be ints, got "):
            BiPoly({key: 1})
        with pytest.raises(TypeError, match=r"^BiPoly exponents must be ints, got "):
            BiPoly([((0, 0), 1), (key, 1)])

    @pytest.mark.parametrize("cls", [LaurentPoly, BiPoly])
    @pytest.mark.parametrize("bad", BAD_COEFFICIENTS, ids=bad_id)
    def test_non_int_coefficient_rejected(self, cls, bad):
        key = 0 if cls is LaurentPoly else (0, 0)
        with pytest.raises(TypeError, match="coefficients must be ints"):
            cls({key: bad})
        with pytest.raises(TypeError, match="coefficients must be ints"):
            cls([(key, 1), (key, bad)])

    @pytest.mark.parametrize("cls", [LaurentPoly, BiPoly])
    def test_key_is_checked_before_coefficient(self, cls):
        key = 1.5 if cls is LaurentPoly else (0, 1.5)
        with pytest.raises(TypeError, match="exponents must be ints"):
            cls({key: 0.5})
        with pytest.raises(TypeError, match="exponents must be ints"):
            cls([(0 if cls is LaurentPoly else (0, 0), 1), (key, "1")])

    def test_generator_argument_is_read_once(self):
        terms = iter([(2, 1), (0, 3), (2, 1)])
        assert LaurentPoly(terms).items() == ((0, 3), (2, 2))
        assert next(terms, None) is None
        assert LaurentPoly.power_sum(e for e in (4, 1, 4)).items() == ((1, 1), (4, 2))
        assert BiPoly(((p, 1 - p), p + 1) for p in (1, 0)).items() == (((0, 1), 1), ((1, 0), 2))


class TestCanonicalOrder:
    """Every constructor and operation stores its keys ascending; each
    is fed operands whose input order is not sorted."""

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=8))
    def test_constructor_sorts_laurent_terms(self, pairs):
        assert_canonical(LaurentPoly(pairs))
        assert_canonical(LaurentPoly(dict(pairs)))

    @given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(-4, 4)),
                              st.integers(-9, 9)), max_size=8))
    def test_constructor_sorts_bi_terms(self, pairs):
        assert_canonical(BiPoly(pairs))
        assert_canonical(BiPoly([(list(k), c) for k, c in pairs]))

    @given(same_class(2), st.integers(-3, 3))
    def test_operations(self, polys, scalar):
        a, b = polys
        for p in (a + b, a - b, b + a, a * b, b * a, -a, scalar * a, a * scalar):
            assert_canonical(p)

    @given(laurent_polys, st.integers(-5, 5))
    def test_laurent_operations(self, a, n):
        assert_canonical(a.shift(n))

    @given(laurent_polys, laurent_polys)
    def test_exact_divide(self, a, b):
        if b:
            assert_canonical(exact_divide(a * b, b))

    @given(st.lists(st.integers(-6, 6), max_size=8))
    def test_power_sum(self, exponents):
        assert_canonical(LaurentPoly.power_sum(exponents))

    def test_raw_callers(self):
        from twoquadrics.curves import block_e_polynomial, block_hochschild
        from twoquadrics.fano_odd import multiplicity_kernel
        from twoquadrics.motivic import MotivicExpression, multiplicity_polynomial

        for p in (LaurentPoly.zero(), LaurentPoly({0: 1}), BiPoly.zero()):
            assert_canonical(p)
        for n in range(8):
            for m in range(n + 1):
                assert_canonical(gauss_binomial(n, m))
        for a in range(2, 7):
            for b in range(a - 1, a + 4):
                assert_canonical(multiplicity_kernel(a, b))
        for g in range(2, 7):
            for k in range(g - 1):
                for i in range(k + 2):
                    assert_canonical(multiplicity_polynomial(g, k, i))
                expression = MotivicExpression.decomposition(g, k)
                assert_canonical(expression.e_polynomial())
                blocks = [(r, k - r, [r + 1, 1]) for r in range(2 * g + 1)]
                assert_canonical(block_hochschild(g, blocks))
        assert_canonical(block_e_polynomial(2, [(3, 1, [2, 0, -1]), (0, -2, [1, 4])]))


def assert_stored_canonically(p):
    """The storage rule the _raw fast path relies on: no zero coefficient,
    keys strictly ascending, and the value that the checking constructor
    builds from the same terms, in the same order."""
    keys = list(p._coeffs)
    assert all(p._coeffs.values()), p
    assert all(a < b for a, b in zip(keys, keys[1:])), keys
    assert type(p)(p.items()).items() == p.items()


class TestStorageRule:
    """Every _raw call outside exactpoly hands over canonical storage, and
    +, - and * equal the constructor of their terms."""

    MAX_G = 12

    def test_block_measures(self):
        for g in range(2, self.MAX_G + 1):
            for k in range(g - 1):
                terms = []
                for i in range(k + 2):
                    base, coeffs = multiplicity_coefficients(g, k, i)
                    if coeffs:
                        terms.append((i, base, coeffs))
                for blocks in (fano_odd_blocks(OddFanoParams(g, k)), macdonald_vectors(g, terms)):
                    assert_stored_canonically(block_e_polynomial(g, blocks))
                    assert_stored_canonically(block_hochschild(g, blocks))

    def test_multiplicity_polynomials(self):
        for g in range(2, self.MAX_G + 1):
            for k in range(g - 1):
                for i in range(k + 2):
                    assert_stored_canonically(multiplicity_polynomial(g, k, i))

    def test_multiplicity_kernels(self):
        # every (a, b) = (g-k, g-r) of fano_odd_blocks for g <= MAX_G
        for a in range(2, self.MAX_G + 1):
            for b in range(a - 1, self.MAX_G + 1):
                assert_stored_canonically(multiplicity_kernel(a, b))

    @pytest.mark.parametrize("polys", [laurent_polys, bipolys], ids=["LaurentPoly", "BiPoly"])
    @given(data=st.data())
    def test_sum_difference_and_product_are_the_constructor_of_their_terms(self, polys, data):
        a, b = data.draw(polys), data.draw(polys)
        cls = type(a)
        negated = [(key, -c) for key, c in b.items()]
        products = [(a._add_keys(k1, k2), c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items()]
        for result, terms in ((a + b, [*a.items(), *b.items()]), (a - b, [*a.items(), *negated]),
                              (a * b, products)):
            assert_stored_canonically(result)
            assert result.items() == cls(terms).items()


@pytest.mark.parametrize(
    "coeffs,ends",
    [
        ((), (0, 0)),
        ((0, 0), (0, 0)),
        ((3,), (0, 1)),
        ((0, 1, 0, 2, 0, 0), (1, 4)),
        ([0, -1], (1, 2)),
    ],
)
def test_nonzero_ends(coeffs, ends):
    assert _nonzero_ends(coeffs) == ends
