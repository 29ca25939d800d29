"""The one integer rule, exactpoly.check_param, behind every integer
parameter of an entry point: the (g, k, i, n) of the Fano and curve
routes, the identity checks, their suite bounds and the sweep's ranges,
the (n, m) of binomial and gauss_coefficients, and a diamond's p, q, m
and d: a value that is not a plain int is a TypeError naming the
parameter, and one out of range a ValueError with a fixed text."""

import re

import pytest

from twoquadrics.cli import sweep_tasks
from twoquadrics.curves import (
    curve_diamond,
    jacobian_diamond,
    projective_space_diamond,
    sym_curve_diamond,
)
from twoquadrics.exactpoly import BiPoly, binomial, gauss_coefficients
from twoquadrics.fano_even import EvenFanoParams, euler_closed_form, fano_even_betti
from twoquadrics.fano_odd import (
    OddFanoParams,
    fano_odd_diamond,
    kernel_coefficients,
    multiplicity_kernel,
)
from twoquadrics.hodge import FanoParams, HodgeDiamond
from twoquadrics.motivic import (
    bgmn_multiplicity,
    multiplicity_at_one,
    multiplicity_coefficients,
    multiplicity_polynomial,
    verify_bgmn_crosscheck,
    verify_decomposition,
    verify_hochschild,
    verify_k0_identity,
)
from twoquadrics.stacky import (
    chu_vandermonde_check,
    chu_vandermonde_suite_report,
    fonarev_rank,
    gessel_identity_check,
    gessel_suite_report,
    pascal_columns,
    stacky_collection_length,
    stacky_counts_report,
)

CURVE = curve_diamond(1)

# entry point, valid arguments, the names of its parameters (None for
# one that is not an integer)
ENTRY_POINTS = [
    (FanoParams.check, (4, 1), ("g", "k")),
    (OddFanoParams, (4, 1), ("g", "k")),
    (EvenFanoParams, (4, 1), ("g", "k")),
    (multiplicity_coefficients, (4, 1, 2), ("g", "k", "i")),
    (multiplicity_polynomial, (4, 1, 2), ("g", "k", "i")),
    (multiplicity_at_one, (4, 1, 2), ("g", "k", "i")),
    (stacky_collection_length, (4, 1), ("g", "k")),
    (fonarev_rank, (4, 1), ("g", "k")),
    (euler_closed_form, (4, 1), ("g", "k")),
    (bgmn_multiplicity, (4, 1), ("g", "i")),
    (verify_k0_identity, (4,), ("g",)),
    (verify_bgmn_crosscheck, (4,), ("g",)),
    (verify_decomposition, (4, 1), ("g", "k")),
    (verify_hochschild, (4, 1), ("g", "k")),
    (stacky_counts_report, (4, 1), ("g", "k")),
    (curve_diamond, (3,), ("g",)),
    (sym_curve_diamond, (3, 2), ("g", "n")),
    (jacobian_diamond, (3,), ("g",)),
    (projective_space_diamond, (3,), ("n",)),
    (gessel_identity_check, (2, 2), ("m", "a")),
    (chu_vandermonde_check, (4, 1, 2), ("n", "j", "k")),
    (pascal_columns, (3, 4), ("top", "length")),
    (kernel_coefficients, (3, 4), ("a", "b")),
    (multiplicity_kernel, (3, 4), ("a", "b")),
    (gessel_suite_report, (2, 2), ("max_m", "max_a")),
    (chu_vandermonde_suite_report, (3,), ("max_n",)),
    (sweep_tasks, (2, 2, 0, 0, 0), ("max_g", "max_g_even", "max_m", "max_a", "max_n")),
    (binomial, (4, 2), ("n", "m")),
    (gauss_coefficients, (4, 2), ("n", "m")),
    (CURVE.hodge_number, (1, 0), ("p", "q")),
    (CURVE.betti, (1,), ("m",)),
    (HodgeDiamond.from_e_polynomial, (BiPoly({(0, 0): 1}), 0), (None, "d")),
    (fano_even_betti, (EvenFanoParams(4, 1), 2), (None, "p")),
]


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "func,args,position,name",
    [
        (func, args, position, name)
        for func, args, names in ENTRY_POINTS
        for position, name in enumerate(names)
        if name
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_non_int_is_a_type_error_naming_the_parameter(func, args, position, name, value):
    args = args[:position] + (value,) + args[position + 1 :]
    with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an int, got {value!r}')}$"):
        func(*args)


def test_warm_caches_do_not_let_floats_through():
    # a cache keyed by == would hand 3.0 the entry of 3 and skip the check
    fano_odd_diamond(OddFanoParams(3, 1))
    sym_curve_diamond(3, 2)
    sym_curve_diamond(3, 1)
    with pytest.raises(TypeError, match="^g must be an int, got 3.0$"):
        fano_odd_diamond(OddFanoParams(3.0, 1))
    with pytest.raises(TypeError, match="^g must be an int, got 3.0$"):
        sym_curve_diamond(3.0, 2)
    with pytest.raises(TypeError, match="^n must be an int, got True$"):
        sym_curve_diamond(3, True)
    assert gauss_coefficients(4, 2) == (1, 1, 2, 1, 1)
    assert gauss_coefficients(1, 1) == (1,)
    with pytest.raises(TypeError, match="^n must be an int, got 4.0$"):
        gauss_coefficients(4.0, 2)
    with pytest.raises(TypeError, match="^m must be an int, got True$"):
        gauss_coefficients(1, True)


def test_warm_kernel_caches_do_not_let_floats_through():
    kernel_coefficients(3, 4)
    multiplicity_kernel(3, 4)
    with pytest.raises(TypeError, match="^a must be an int, got 3.0$"):
        kernel_coefficients(3.0, 4)
    with pytest.raises(TypeError, match="^b must be an int, got 4.0$"):
        multiplicity_kernel(3, 4.0)


@pytest.mark.parametrize(
    "func,args,message",
    [
        (FanoParams.check, (1, 0), "g = 1: need g >= 2"),
        (FanoParams.check, (4, 3), "k = 3: need 0 <= k <= g-2 = 2"),
        (multiplicity_coefficients, (1, 0, 0), "g = 1: need g >= 2"),
        (multiplicity_coefficients, (4, 3, 0), "k = 3: need 0 <= k <= g-2 = 2"),
        (multiplicity_coefficients, (4, 1, 3), "i = 3: need 0 <= i <= k+1 = 2"),
        (multiplicity_coefficients, (4, 1, -1), "i = -1: need 0 <= i <= k+1 = 2"),
        (multiplicity_polynomial, (4, 1, 3), "i = 3: need 0 <= i <= k+1 = 2"),
        (multiplicity_at_one, (4, -1, 0), "k = -1: need 0 <= k <= g-2 = 2"),
        (stacky_collection_length, (1, 0), "g = 1: need g >= 2"),
        (stacky_collection_length, (4, 3), "k = 3: need 0 <= k <= g-2 = 2"),
        (fonarev_rank, (1, 0), "g = 1: need g >= 2"),
        (fonarev_rank, (4, -1), "k = -1: need k >= 0"),
        (euler_closed_form, (1, 0), "g = 1: need g >= 2"),
        (euler_closed_form, (4, 4), "k = 4: need 0 <= k <= g-1 = 3"),
        (bgmn_multiplicity, (1, 0), "g = 1: need g >= 2"),
        (bgmn_multiplicity, (4, 4), "i = 4: need 0 <= i <= g-1 = 3"),
        (verify_k0_identity, (1,), "g = 1: need g >= 2"),
        (verify_bgmn_crosscheck, (1,), "g = 1: need g >= 2"),
        (verify_decomposition, (4, 3), "k = 3: need 0 <= k <= g-2 = 2"),
        (verify_hochschild, (1, 0), "g = 1: need g >= 2"),
        (stacky_counts_report, (4, 3), "k = 3: need 0 <= k <= g-2 = 2"),
        (curve_diamond, (-1,), "g = -1: need g >= 0"),
        (sym_curve_diamond, (-1, 2), "g = -1: need g >= 0"),
        (sym_curve_diamond, (3, -1), "n = -1: need n >= 0"),
        (jacobian_diamond, (-1,), "g = -1: need g >= 0"),
        (projective_space_diamond, (-1,), "n = -1: need n >= 0"),
        (gessel_identity_check, (-1, 2), "m = -1: need m >= 0"),
        (gessel_identity_check, (2, -2), "a = -2: need a >= 0"),
        (gessel_identity_check, (2, 3), "a = 3: need a even"),
        (chu_vandermonde_check, (-1, 0, 0), "n = -1: need n >= 0"),
        (chu_vandermonde_check, (2, 0, 3), "k = 3: need 0 <= k <= n = 2"),
        (chu_vandermonde_check, (3, 2, 1), "j = 2: need 0 <= j <= k = 1"),
        (chu_vandermonde_check, (3, -1, 1), "j = -1: need 0 <= j <= k = 1"),
        (pascal_columns, (-1, 3), "top = -1: need top >= 0"),
        (pascal_columns, (3, -1), "length = -1: need length >= 0"),
        (kernel_coefficients, (1, 3), "a = 1: need a >= 2"),
        (kernel_coefficients, (3, 1), "b = 1: need b >= 2"),
        (multiplicity_kernel, (3, 1), "b = 1: need b >= 2"),
        # a suite refuses a bound it would not check to the end
        (gessel_suite_report, (-1, 4), "max_m = -1: need max_m >= 0"),
        (gessel_suite_report, (2, -2), "max_a = -2: need max_a >= 0"),
        (gessel_suite_report, (2, 5), "max_a = 5: need max_a even"),
        (chu_vandermonde_suite_report, (-3,), "max_n = -3: need max_n >= 0"),
        (sweep_tasks, (1, 2, 0, 0, 0), "max_g = 1: need max_g >= 2"),
        (sweep_tasks, (2, 1, 0, 0, 0), "max_g_even = 1: need max_g_even >= 2"),
        (sweep_tasks, (2, 2, -1, 0, 0), "max_m = -1: need max_m >= 0"),
        (sweep_tasks, (2, 2, 0, 3, 0), "max_a = 3: need max_a even"),
        (sweep_tasks, (2, 2, 0, 0, -5), "max_n = -5: need max_n >= 0"),
        # m may be any int, and n must be >= 0 when m >= 1
        (binomial, (-1, 2), "n = -1: need n >= 0"),
        (gauss_coefficients, (-2, 1), "n = -2: need n >= 0"),
        (CURVE.hodge_number, (3, 0), "p = 3: need 0 <= p <= d = 1"),
        (CURVE.hodge_number, (0, -1), "q = -1: need 0 <= q <= d = 1"),
        (CURVE.betti, (3,), "m = 3: need 0 <= m <= 2d = 2"),
        (HodgeDiamond.from_e_polynomial, (BiPoly(), -1), "d = -1: need d >= 0"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_value_error_messages(func, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(*args)



@pytest.fixture
def params_built(monkeypatch):
    """The (class, g, k) of every FanoParams built, by either Fano case,
    while the test runs."""
    built = []
    init = FanoParams.__init__

    def counted(self, g, k):
        built.append((type(self), g, k))
        init(self, g, k)

    monkeypatch.setattr(FanoParams, "__init__", counted)
    return built


@pytest.mark.parametrize("g,k", [(2, 0), (6, 3), (9, 7)])
def test_a_verifier_builds_one_params_record(params_built, g, k):
    # its k+2 multiplicities check (g, k) by FanoParams.check, building none
    for verify in (verify_decomposition, verify_hochschild):
        params_built.clear()
        assert verify(g, k).verified
        assert params_built == [(OddFanoParams, g, k)], verify.__name__


@pytest.mark.parametrize("g,k", [(2, 0), (6, 3), (9, 7)])
def test_the_stacky_count_builds_no_params_record(params_built, g, k):
    assert FanoParams.check(g, k) is None
    stacky_collection_length(g, k)
    assert params_built == []
