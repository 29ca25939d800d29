"""Motivic multiplicity polynomials in the Lefschetz variable L and the
identity verifiers built on them.

The class of the k-plane Fano scheme in the hyperelliptic case is
conjectured to decompose as sum_{i=0..k+1} M_i(L) [Sym^i C]; this module
computes the multiplicity polynomials M_i exactly and at L = 1, and
checks the decomposition after the E-polynomial and Hochschild measures
(both sides as blocks, the sum by curves.macdonald_vectors), together
with the k = 0 and k = g-2 cross-checks.  Failure is data, not an
exception: every verifier returns a report carrying both sides, an
immutable record with no time in it, frozen to its leaves.  Every g, k
and i passes exactpoly.check_param, (g, k) through FanoParams.check.
"""

from __future__ import annotations

from typing import Any

from .curves import (
    block_e_polynomial,
    block_hochschild,
    curve_diamond,
    macdonald_vectors,
    projective_space_diamond,
)
from .exactpoly import BiPoly, LaurentPoly, binomial, check_param, gauss_sum
from .fano_odd import OddFanoParams, fano_odd_blocks, fano_odd_diamond
from .hodge import FanoParams, Record

VERIFIED = "verified"
FAILED = "failed"
ERROR = "error"  # a sweep task that raised an internal error


def _check_gki(g: int, k: int, i: int) -> None:
    FanoParams.check(g, k)
    check_param("i", i, 0, k + 1, "k+1")


def multiplicity_coefficients(g: int, k: int, i: int) -> tuple[int, list[int]]:
    """Multiplicity polynomial of [Sym^i C] in the class decomposition of
    the k-plane Fano scheme, as a dense (base, coeffs): the polynomial
    sum_e coeffs[e] L^{base+e}, with nonzero ends (no coefficients for
    the zero polynomial).

    In (h, j) = (g-i, k-i), M_i(g, k) = L^{i(h-j-1)} M(h, j), M(h, j) a
    five-term bracket of shifted Gaussian binomials in L, every
    contributing shift non-negative, summed by exactpoly.gauss_sum; each
    of its n, m and shifts is affine in (h, j).  For i <= k, (h, j) is a
    (g, k) pair itself and M(h, j) = M_0(h, j).
    """
    _check_gki(g, k, i)
    h, j = g - i, k - i
    n = 2 * h - j - 4
    low, coeffs = gauss_sum((
        (1, 2 * h - j, j + 1, (0,)),
        (-1, n, j, (h - j - 1, h + 2 * j)),
        (-1, n, j - 1, (h - j, h, h + j, 3 * h - 3 * j - 4, 3 * h - 2 * j - 4, 3 * h - j - 4)),
        (
            -1, n, j - 2,
            (3 * (h - j - 1), 3 * (h - j - 1) + 1, 3 * h - 2 * j - 3, 3 * h - 2 * j - 2),
        ),
        (-1, n, j - 3, (4 * (h - j) - 2,)),
    ))
    return i * (h - j - 1) + low, coeffs


def multiplicity_polynomial(g: int, k: int, i: int) -> LaurentPoly:
    """Multiplicity polynomial of [Sym^i C] in the class decomposition of
    the k-plane Fano scheme, as an exact polynomial in L: the LaurentPoly
    view of multiplicity_coefficients."""
    base, coeffs = multiplicity_coefficients(g, k, i)
    return LaurentPoly._raw({base + e: c for e, c in enumerate(coeffs) if c})


def multiplicity_at_one(g: int, k: int, i: int) -> int:
    """Value of the multiplicity polynomial at L = 1, in closed form:
    C(2g-4-k-i, k+1-i) + 2 C(2g-4-k-i, k-i)."""
    _check_gki(g, k, i)
    n = 2 * g - 4 - k - i
    return binomial(n, k + 1 - i) + 2 * binomial(n, k - i)


def bgmn_multiplicity(g: int, i: int) -> LaurentPoly:
    """Known k = g-2 multiplicities (the BGMN identity for the moduli
    space of rank-two bundles): L^{g-1} for i = g-1, else L^i + L^{3g-3-2i}.

    The i = 0 term is included; it is forced by the k = 0 cross-checks.
    """
    check_param("g", g, 2)
    check_param("i", i, 0, g - 1, "g-1")
    if i == g - 1:
        return LaurentPoly({g - 1: 1})
    return LaurentPoly.power_sum((i, 3 * g - 3 - 2 * i))


class MotivicExpression(Record):
    """Formal sum over i of P_i(L) [Sym^i C] for a genus-g curve; the i = 0
    term stands for the point class.  Zero multiplicities are dropped.
    An immutable record of (genus, terms)."""

    __slots__ = _FIELDS = ("genus", "terms")

    def __init__(self, genus: int, terms: tuple[tuple[int, LaurentPoly], ...]):
        super().__init__(genus, terms)

    @classmethod
    def from_terms(cls, genus, mapping) -> "MotivicExpression":
        kept = tuple(sorted(((i, p) for i, p in mapping.items() if p), key=lambda t: t[0]))
        return cls(genus, kept)

    @classmethod
    def decomposition(cls, g: int, k: int) -> "MotivicExpression":
        """The conjectured decomposition side for the (g, k) Fano scheme."""
        return cls.from_terms(
            g, {i: multiplicity_polynomial(g, k, i) for i in range(k + 2)}
        )

    def block_vectors(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The expression as blocks of the curve, by macdonald_vectors
        from its terms made dense."""
        dense = []
        for i, poly in self.terms:
            low = poly.valuation()
            dense.append((i, low, [poly.coefficient(e) for e in range(low, poly.degree() + 1)]))
        return macdonald_vectors(self.genus, dense)

    def e_polynomial(self) -> BiPoly:
        """Apply the E-polynomial measure: L becomes x*y and [Sym^i C]
        becomes the E-polynomial of its diamond; block_e_polynomial
        measures the block vectors."""
        return block_e_polynomial(self.genus, self.block_vectors())

    def effectivity(self) -> tuple[tuple[int, bool], ...]:
        """Per-index check that every multiplicity coefficient is >= 0."""
        return tuple((i, poly.is_effective()) for i, poly in self.terms)


def _frozen(value):
    """value with every list in it, at any depth, made a tuple; a tuple
    that holds no list or tuple is returned as it is."""
    if not isinstance(value, (list, tuple)):
        return value
    if type(value) is tuple and not any(isinstance(v, (list, tuple)) for v in value):
        return value
    return tuple(map(_frozen, value))


class VerificationReport(Record):
    """Structured pass/fail record for one identity instance.

    Carries both sides so that a mismatch is diagnosable; status is
    "verified" exactly when the sides agree and every effectivity check
    passes.  An immutable, hashable Record down to its leaves: params and
    observations (dicts, or pairs) are stored as (key, value) pairs in key
    order with every list made a tuple.  With no time in it, two reports
    of one check are equal; cli.run_check returns the time beside it.
    """

    __slots__ = _FIELDS = (
        "identity", "params", "status", "lhs", "rhs", "effectivity", "observations",
    )

    def __init__(
        self,
        identity: str,
        params: dict[str, int],
        status: str,
        lhs: Any,
        rhs: Any,
        effectivity: tuple[tuple[int, bool], ...] = (),
        observations: dict[str, Any] | None = None,
    ):
        super().__init__(
            identity, _frozen(sorted(dict(params).items())), status, lhs, rhs, effectivity,
            _frozen(sorted(dict(observations or ()).items())),
        )

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


def _status(equal: bool, effectivity=()) -> str:
    """The one verdict rule of every report: verified when the sides are
    equal and every multiplicity is effective."""
    return VERIFIED if equal and all(ok for _, ok in effectivity) else FAILED


def verify_decomposition(g: int, k: int) -> VerificationReport:
    """Check, after the E-polynomial measure, that the class of the
    k-plane Fano scheme equals sum_i M_i(L) [Sym^i C], and that every M_i
    is effective.  Both sides are measured from their block vectors, in
    the one trimmed (r, low, coeffs) form: the Fano side from
    fano_odd_blocks, the sum from the dense multiplicities by
    macdonald_vectors.

    The sum side is measured only when its block vectors differ from the
    Fano side's.  When they agree, both sides are the E-polynomial of the
    same blocks, so rhs is lhs exactly; when they differ, the E-
    polynomials are compared as they are.  Either way the verdict and
    the report are those of measuring both sides, with no appeal to the
    measure being injective on block vectors.
    """
    params = OddFanoParams(g, k)
    terms = []
    for i in range(k + 2):
        base, coeffs = multiplicity_coefficients(g, k, i)
        if coeffs:
            terms.append((i, base, coeffs))
    fano = fano_odd_blocks(params)
    lhs = block_e_polynomial(g, fano)
    sums = macdonald_vectors(g, terms)
    rhs = lhs if sums == fano else block_e_polynomial(g, sums)
    effectivity = tuple((i, min(coeffs) >= 0) for i, _, coeffs in terms)
    spans = tuple((i, base, base + len(coeffs) - 1) for i, base, coeffs in terms)
    return VerificationReport(
        identity="hyperelliptic-decomposition",
        params={"g": g, "k": k},
        status=_status(lhs == rhs, effectivity),
        lhs=lhs,
        rhs=rhs,
        effectivity=effectivity,
        observations={"multiplicity_spans": spans},
    )


def verify_k0_identity(g: int) -> VerificationReport:
    """Check the k = 0 identity: the E-polynomial of the intersection of
    two quadrics equals E(P^{2g-1}) - L^{g-1} E(P^1) + L^{g-1} E(C) with
    L = x*y (one common factor of L cancelled, which is legitimate since
    the polynomial ring has no zero divisors).  OddFanoParams(g, 0)
    checks g."""
    lhs = fano_odd_diamond(OddFanoParams(g, 0)).e_polynomial()
    shift = BiPoly({(g - 1, g - 1): 1})
    rhs = (
        projective_space_diamond(2 * g - 1).e_polynomial()
        - shift * projective_space_diamond(1).e_polynomial()
        + shift * curve_diamond(g).e_polynomial()
    )
    return VerificationReport(
        identity="k0-identity",
        params={"g": g},
        status=_status(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
    )


def verify_bgmn_crosscheck(g: int) -> VerificationReport:
    """Check that the k = g-2 multiplicity polynomials reproduce the known
    BGMN multiplicities, as polynomials in L."""
    check_param("g", g, 2)
    lhs = tuple((i, multiplicity_polynomial(g, g - 2, i)) for i in range(g))
    rhs = tuple((i, bgmn_multiplicity(g, i)) for i in range(g))
    return VerificationReport(
        identity="bgmn-crosscheck",
        params={"g": g},
        status=_status(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
    )


def verify_hochschild(g: int, k: int) -> VerificationReport:
    """Check the L = 1 reduction on Hochschild homology: the Hochschild
    polynomial of the Fano scheme equals the multiplicity-weighted sum of
    those of the symmetric powers.

    block_hochschild measures both sides' blocks: fano_odd_blocks, and the
    multiplicities at L = 1 by macdonald_vectors.  The Fano blocks are
    built, not summed by the kernel's closed form at one, so that their
    fit, non-negativity and Serre checks run here too.
    """
    lhs = block_hochschild(g, fano_odd_blocks(OddFanoParams(g, k)))
    terms = [(i, 0, (multiplicity_at_one(g, k, i),)) for i in range(k + 2)]
    rhs = block_hochschild(g, macdonald_vectors(g, terms))
    return VerificationReport(
        identity="hochschild-decomposition",
        params={"g": g, "k": k},
        status=_status(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
    )
