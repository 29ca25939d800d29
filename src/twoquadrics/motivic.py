"""Motivic multiplicity polynomials in the Lefschetz variable L and the
identity verifiers built on them.

The class of the k-plane Fano scheme in the hyperelliptic case is
conjectured to decompose as sum_{i=0..k+1} M_i(L) [Sym^i C]; this module
computes the multiplicity polynomials M_i exactly, reduces them at L = 1,
and checks the decomposition after the E-polynomial measure (L becomes
x*y), together with the k = 0 and k = g-2 cross-checks and the
Hochschild-level reduction.  Failure is data, not an exception: every
verifier returns a report carrying both sides.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any

from .curves import (
    block_e_polynomial,
    block_hochschild,
    curve_diamond,
    projective_space_diamond,
)
from .exactpoly import BiPoly, LaurentPoly, _nonzero_ends, binomial, gauss_sum
from .fano_odd import OddFanoParams, fano_odd_blocks, fano_odd_diamond

VERIFIED = "verified"
FAILED = "failed"
ERROR = "error"  # a sweep task that raised an internal error


def _check_gki(g: int, k: int, i: int) -> None:
    if g < 2:
        raise ValueError(f"g = {g}: need g >= 2")
    if not 0 <= k <= g - 2:
        raise ValueError(f"k = {k}: need 0 <= k <= g-2 = {g - 2}")
    if not 0 <= i <= k + 1:
        raise ValueError(f"i = {i}: need 0 <= i <= k+1 = {k + 1}")


def multiplicity_coefficients(g: int, k: int, i: int) -> tuple[int, list[int]]:
    """Multiplicity polynomial of [Sym^i C] in the class decomposition of
    the k-plane Fano scheme, as a dense (base, coeffs): the polynomial
    sum_e coeffs[e] L^{base+e}, with nonzero ends (no coefficients for
    the zero polynomial).

    L^{i(g-k-1)} times a five-term bracket of shifted Gaussian binomials
    in L, every contributing shift non-negative, summed by
    exactpoly.gauss_sum.
    """
    _check_gki(g, k, i)
    n = 2 * g - k - i - 4
    low, coeffs = gauss_sum((
        (1, 2 * g - k - i, k + 1 - i, (0,)),
        (-1, n, k - i, (g - k - 1, g + 2 * k - 3 * i)),
        (
            -1, n, k - i - 1,
            (g - k, g - i, g + k - 2 * i, 3 * g - 3 * k - 4, 3 * g - 2 * k - 4 - i,
             3 * g - k - 2 * i - 4),
        ),
        (
            -1, n, k - i - 2,
            (3 * (g - k - 1), 3 * (g - k - 1) + 1, 3 * g - 2 * k - i - 3,
             3 * g - 2 * k - i - 2),
        ),
        (-1, n, k - i - 3, (4 * (g - k) - 2,)),
    ))
    return i * (g - k - 1) + low, coeffs


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
    if g < 2:
        raise ValueError(f"g = {g}: need g >= 2")
    if not 0 <= i <= g - 1:
        raise ValueError(f"i = {i}: need 0 <= i <= g-1 = {g - 1}")
    if i == g - 1:
        return LaurentPoly({g - 1: 1})
    return LaurentPoly.power_sum((i, 3 * g - 3 - 2 * i))


def macdonald_vectors(g: int, terms) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The sum over (i, low, coeffs) in `terms` (distinct i >= 0) of
    P_i [Sym^i C], P_i = sum_e coeffs[e] L^{low+e}, C of genus g, as
    blocks of the curve in the form of fano_odd_blocks: (r, low, coeffs)
    stands for sum_e coeffs[e] wedge^r H^1 L^{low+e}, for r <= 2g
    ascending, coeffs with nonzero ends, and no entry for a zero block.

    By Macdonald, [Sym^i C] is the sum over r <= min(i, 2g) of
    wedge^r H^1 (1 + L + ... + L^{i-r}), so the sum is
    sum_r wedge^r H^1 Q_r with Q_r = sum_{i >= r} P_i (1 + ... + L^{i-r}).
    Q_r = T_r + L Q_{r+1}, where T_r = sum_{i >= r} P_i, so each r
    costs two dense vector updates, P_r entering T_r as one slice update.
    Every vector runs from the lowest exponent of any P_i to the highest
    of any P_i L^i, and is trimmed to its nonzero ends as it is kept.
    """
    if not terms:
        return ()
    low = min(start for _, start, _ in terms)
    size = max(start + len(coeffs) + i for i, start, coeffs in terms) - low
    polys = {i: (start - low, coeffs) for i, start, coeffs in terms}
    tail = [0] * size  # T_r
    q = [0] * size  # Q_r
    vectors = []
    for r in range(max(polys), -1, -1):
        if r in polys:
            at, coeffs = polys[r]
            span = slice(at, at + len(coeffs))
            tail[span] = map(operator.add, tail[span], coeffs)
        # the shift drops only a zero: deg L Q_{r+1} <= max_i deg P_i L^i
        q = list(map(operator.add, tail, itertools.chain((0,), q)))
        lo, hi = _nonzero_ends(q)
        if r <= 2 * g and lo < hi:
            vectors.append((r, low + lo, tuple(q[lo:hi])))
    return tuple(reversed(vectors))


class MotivicExpression:
    """Formal sum over i of P_i(L) [Sym^i C] for a genus-g curve; the i = 0
    term stands for the point class.  Zero multiplicities are dropped.
    Immutable; equal, with equal hashes, exactly when genus and terms
    agree."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus: int, terms: tuple[tuple[int, LaurentPoly], ...]):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.genus, self.terms) == (other.genus, other.terms)

    def __hash__(self) -> int:
        return hash((self.genus, self.terms))

    def __repr__(self) -> str:
        return f"MotivicExpression(genus={self.genus!r}, terms={self.terms!r})"

    def __reduce__(self):
        return type(self), (self.genus, self.terms)

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


class VerificationReport:
    """Structured pass/fail record for one identity instance.

    Carries both sides so that a mismatch is diagnosable; status is
    "verified" exactly when the sides agree and every effectivity check
    passes.  Two reports are equal when every field is.  The builders
    leave elapsed_ms at 0; the CLI's runner (cli.run_check) stamps it.
    """

    _FIELDS = (
        "identity", "params", "status", "lhs", "rhs", "effectivity", "observations",
        "elapsed_ms",
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
        elapsed_ms: int = 0,
    ):
        self.identity = identity
        self.params = params
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.effectivity = effectivity
        self.observations = {} if observations is None else observations
        self.elapsed_ms = elapsed_ms

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"VerificationReport({fields})"

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


def _status(equal: bool, effectivity=()) -> str:
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
    terms = []
    for i in range(k + 2):
        base, coeffs = multiplicity_coefficients(g, k, i)
        if coeffs:
            terms.append((i, base, coeffs))
    fano = fano_odd_blocks(OddFanoParams(g, k))
    lhs = block_e_polynomial(g, fano)
    sums = macdonald_vectors(g, terms)
    rhs = lhs if sums == fano else block_e_polynomial(g, sums)
    effectivity = tuple((i, min(coeffs) >= 0) for i, _, coeffs in terms)
    spans = [[i, base, base + len(coeffs) - 1] for i, base, coeffs in terms]
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
    the polynomial ring has no zero divisors)."""
    if g < 2:
        raise ValueError(f"g = {g}: need g >= 2")
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
    if g < 2:
        raise ValueError(f"g = {g}: need g >= 2")
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

    Both sides are weighted sums of the blocks wedge^r H^1: the Fano side
    weighs r by its number of copies at any twist, sum(coeffs); by
    Macdonald the sum side weighs r by sum_{i >= r} M_i(1) (i - r + 1),
    accumulated from the top i down.
    """
    blocks = fano_odd_blocks(OddFanoParams(g, k))
    lhs = block_hochschild(g, ((r, sum(coeffs)) for r, _, coeffs in blocks))
    weights = []
    tail = weight = 0
    for r in range(k + 1, -1, -1):
        tail += multiplicity_at_one(g, k, r)
        weight += tail
        weights.append((r, weight))
    rhs = block_hochschild(g, weights)
    return VerificationReport(
        identity="hochschild-decomposition",
        params={"g": g, "k": k},
        status=_status(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
    )
