"""The one integer rule, hodge.check_param, behind every (g, k, i, n)
entry point: a value that is not a plain int is a TypeError naming the
parameter, and one out of range a ValueError with a fixed text."""

import re

import pytest

from twoquadrics.curves import (
    curve_diamond,
    jacobian_diamond,
    projective_space_diamond,
    sym_curve_diamond,
)
from twoquadrics.fano_even import EvenFanoParams, euler_closed_form
from twoquadrics.fano_odd import OddFanoParams, fano_odd_diamond
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
from twoquadrics.stacky import fonarev_rank, stacky_collection_length, stacky_counts_report

# entry point, valid arguments, the names of its parameters
ENTRY_POINTS = [
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
]


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "func,args,position,name",
    [
        (func, args, position, name)
        for func, args, names in ENTRY_POINTS
        for position, name in enumerate(names)
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


@pytest.mark.parametrize(
    "func,args,message",
    [
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
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_value_error_messages(func, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(*args)

