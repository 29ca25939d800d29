"""Exact Hodge diamonds and motivic invariants of Fano schemes of linear
subspaces on smooth intersections of two quadrics."""

from .curves import (
    curve_diamond,
    jacobian_diamond,
    projective_space_diamond,
    sym_curve_diamond,
)
from .exactpoly import (
    BiPoly,
    ConsistencyError,
    InexactDivisionError,
    LaurentPoly,
    binomial,
    exact_divide,
    gauss_coefficients,
)
from .fano_even import (
    EvenFanoParams,
    euler_closed_form,
    fano_even_betti,
    fano_even_betti_numbers,
    fano_even_diamond,
)
from .fano_odd import (
    OddFanoParams,
    fano_odd_blocks,
    fano_odd_diamond,
    multiplicity_kernel,
)
from .hodge import HodgeDiamond
from .motivic import (
    MotivicExpression,
    VerificationReport,
    bgmn_multiplicity,
    multiplicity_at_one,
    multiplicity_polynomial,
    verify_bgmn_crosscheck,
    verify_decomposition,
    verify_hochschild,
    verify_k0_identity,
)
from .stacky import (
    chu_vandermonde_check,
    fonarev_rank,
    gessel_identity_check,
    stacky_collection_length,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "ConsistencyError",
    "EvenFanoParams",
    "HodgeDiamond",
    "InexactDivisionError",
    "LaurentPoly",
    "MotivicExpression",
    "OddFanoParams",
    "VerificationReport",
    "bgmn_multiplicity",
    "binomial",
    "chu_vandermonde_check",
    "curve_diamond",
    "euler_closed_form",
    "exact_divide",
    "fano_even_betti",
    "fano_even_betti_numbers",
    "fano_even_diamond",
    "fano_odd_blocks",
    "fano_odd_diamond",
    "fonarev_rank",
    "gauss_coefficients",
    "gessel_identity_check",
    "jacobian_diamond",
    "multiplicity_at_one",
    "multiplicity_kernel",
    "multiplicity_polynomial",
    "projective_space_diamond",
    "stacky_collection_length",
    "sym_curve_diamond",
    "verify_bgmn_crosscheck",
    "verify_decomposition",
    "verify_hochschild",
    "verify_k0_identity",
]
