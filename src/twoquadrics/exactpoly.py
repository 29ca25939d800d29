"""Exact integer polynomial arithmetic.

Laurent polynomials in one variable, polynomials in two commuting
variables, and Gaussian (q-)binomial coefficients.  The two polynomial
classes share one sparse core for their arithmetic, comparison and
printing.  Coefficients are arbitrary-precision Python ints, so every
operation is exact and downstream identity checks are literal
polynomial equalities; the constructors take plain int exponents and
int coefficients only and raise TypeError on anything else, and
check_param, the one rule for an integer parameter, UsageError, the
error of bad input, and ConsistencyError, the error of an impossible
internal value, live here, below every module that uses them.  Dense
polynomials on the hot paths are packed into single ints, and this
module is the only one that knows the packed form: every caller sums shifted Gaussian binomials through
gauss_sum and reads back plain coefficient lists (see below).

All values are immutable after construction and all operations are pure;
the Gaussian-binomial tables are safe for concurrent use under the GIL
and never change results.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import Iterable, Mapping


class InexactDivisionError(ArithmeticError):
    """A polynomial division left a nonzero remainder."""


class ConsistencyError(RuntimeError):
    """Internal bookkeeping produced an impossible value: a Hodge number
    that breaks a symmetry, or a Gaussian binomial that does not fit the
    digit width gauss_sum proved for it."""


class UsageError(ValueError):
    """Bad input: a value outside the range of its input rule
    (check_param, stacky.check_suite_bounds), or a command line that
    cannot be run.  The one type the command line exits 2 on; every
    other exception is an internal error."""


def _power(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


class _SparsePoly:
    """Immutable sparse polynomial: a dict from exponent keys to nonzero
    ints, stored in ascending key order, so a reader walks the terms in
    order without sorting them.  _summed is the one merge of terms, for
    the checking constructor, +, - and *; _raw is the fast path for
    storage already in that form.  A subclass gives the key form (_key,
    _add_keys) and the monomial format of its pretty; the arithmetic,
    comparison and printing below are shared.  Operands of different
    subclasses never combine and never compare equal.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = self._summed(self._checked(items))

    def _checked(self, items):
        # one pass, as the merge reads the terms: a key before its coefficient
        for key, c in items:
            key = self._key(key)
            if not isinstance(c, int):
                raise TypeError(f"{type(self).__name__} coefficients must be ints, got {c!r}")
            yield key, c

    @staticmethod
    def _summed(terms) -> dict:
        out: dict = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + c
        return {key: out[key] for key in sorted(out) if out[key]}

    @classmethod
    def _raw(cls, coeffs: dict):
        # internal fast path; `coeffs` must already be zero-free, with keys
        # in the subclass's form and in ascending order
        p = object.__new__(cls)
        p._coeffs = coeffs
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    def items(self) -> tuple:
        """(key, coefficient) pairs, ascending in key."""
        return tuple(self._coeffs.items())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __neg__(self):
        return self._raw({k: -c for k, c in self._coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(self._summed(itertools.chain(self._coeffs.items(), other._coeffs.items())))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def _product(self, other):
        # each subclass binds this as its own __mul__ and __rmul__
        if isinstance(other, int):
            return self._raw({k: c * other for k, c in self._coeffs.items()} if other else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        add_keys = self._add_keys
        return self._raw(self._summed(
            (add_keys(k1, k2), c1 * c2)
            for k1, c1 in self._coeffs.items()
            for k2, c2 in other._coeffs.items()
        ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def _pretty(self, monomial) -> str:
        # monomial(key) is the variable part of a term, "" for a constant
        parts = []
        for key, c in self.items():
            m = monomial(key)
            if not m:
                body = str(abs(c))
            elif abs(c) == 1:
                body = m
            else:
                body = f"{abs(c)}*{m}"
            if parts:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
            else:
                parts.append(body if c > 0 else f"-{body}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class LaurentPoly(_SparsePoly):
    """Immutable Laurent polynomial with integer coefficients.

    The variable is anonymous; by context it stands for q (multiplicity
    kernels), L (the Lefschetz class) or t (the Hochschild grading).
    Keys are int exponents and zero coefficients are never stored.
    """

    __slots__ = ()

    @staticmethod
    def _key(e) -> int:
        if type(e) is not int:  # a bool or other int subclass could print unlike an int
            raise TypeError(f"LaurentPoly exponents must be ints, got {e!r}")
        return e

    _add_keys = staticmethod(operator.add)
    __mul__ = __rmul__ = _SparsePoly._product

    @classmethod
    def power_sum(cls, exponents: Iterable[int]) -> "LaurentPoly":
        """Sum of monomials q^e over `exponents`, with multiplicity."""
        return cls((e, 1) for e in exponents)

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return next(reversed(self._coeffs))

    def valuation(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no valuation")
        return next(iter(self._coeffs))

    def is_effective(self) -> bool:
        """True when every coefficient is non-negative."""
        return all(c >= 0 for c in self._coeffs.values())

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by q^n; n must be an int, as an exponent must."""
        self._key(n)
        if not n:
            return self
        return LaurentPoly._raw({e + n: c for e, c in self._coeffs.items()})

    def pretty(self, var: str = "q") -> str:
        return self._pretty(lambda e: _power(var, e))


class BiPoly(_SparsePoly):
    """Immutable polynomial in two commuting variables x, y over the ints.

    Houses E-polynomials; keys are (p, q) int pairs, the exponents of x
    and y, and zero coefficients are never stored.
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple[int, int]:
        try:
            p, q = key
        except (TypeError, ValueError):  # not a pair
            p = q = None
        if not (type(p) is int and type(q) is int):  # as in LaurentPoly._key
            raise TypeError(f"BiPoly exponents must be ints, got {key!r}")
        return (p, q)

    @staticmethod
    def _add_keys(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    __mul__ = __rmul__ = _SparsePoly._product

    def pretty(self) -> str:
        return self._pretty(lambda k: "*".join(filter(None, map(_power, "xy", k))))


def check_param(name: str, value, low: int | None = None, high: int | None = None,
                high_text: str = "") -> None:
    """The one rule for an integer parameter: a plain int (a bool is
    refused), low <= value unless low is None, and value <= high when
    high is given.  A value of another type is a TypeError ("g must be an
    int, got 2.5"); one out of range a UsageError, the one type of bad
    input, naming the bound, "g = 1: need g >= 2" or, with high_text
    the bound's formula, "k = 3: need 0 <= k <= g-2 = 2"."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if high is not None:
        if not low <= value <= high:
            raise UsageError(f"{name} = {value}: need {low} <= {name} <= {high_text} = {high}")
    elif low is not None and value < low:
        raise UsageError(f"{name} = {value}: need {name} >= {low}")


def binomial(n: int, m: int) -> int:
    """Binomial coefficient with the edge conventions used throughout.

    m < 0 gives 0 and m = 0 gives 1 for every n, including negative n
    (these conventions are forced by the top symmetric-power multiplicity
    being 1); 0 <= n < m gives 0.  By check_param, m is any int and n an
    int >= 0 when m >= 1 (no formula here has n < 0 there).
    """
    check_param("m", m)
    check_param("n", n, 0 if m >= 1 else None)
    if m < 0:
        return 0
    if m == 0:
        return 1
    return math.comb(n, m)


# ---------------------------------------------------------------------------
# Packed dense polynomials (Kronecker substitution)
#
# A dense integer polynomial sum_e c_e X^e is held as its value at
# X = 2^width, one Python int, so that a shift of every coefficient, or a
# sum of two polynomials, is one C-level operation on that int.  The
# width S is a multiple of 64 and the digits are signed and balanced:
# every c_e lies in [-2^(S-1), 2^(S-1)).  Two polynomials with digits in
# that range are equal exactly when their packed values are, and more
# generally P(2^S) = 0 forces P = 0 whenever every |P_e| < 2^S (the
# lowest nonzero coefficient would be a nonzero multiple of 2^S).
#
# Exactness therefore rests on the width, derived by packed_width from
# an a priori bound on every |coefficient| and every partial sum formed;
# a digit in the top half of its range then reads back as a negative
# coefficient, never as a carry.  gauss_sum is the one caller that picks
# a width, and proves its bound once.

_LIMB_BITS = 64
_BIG_ENDIAN = sys.byteorder == "big"


def packed_width(bound: int) -> int:
    """The digit width S for values bounded by `bound`: the least multiple
    of 64 with bound < 2^(S-1), so one bit spare above the bound itself
    and every |value| <= bound is a balanced digit."""
    return (bound.bit_length() + _LIMB_BITS) // _LIMB_BITS * _LIMB_BITS


def _half_digits(width: int, length: int) -> int:
    """The packed value with each of `length` digits equal to 2^(width-1):
    adding it makes balanced digits non-negative, one per width bits."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * length, "little")


def _native_limbs(data, fmt: str) -> memoryview:
    """The 64-bit limbs of `data` (bytes in native byte order) as a
    memoryview of format `fmt`, least significant limb first."""
    view = memoryview(data).cast(fmt)
    return view[::-1] if _BIG_ENDIAN else view


def _digits_holding(x: int, width: int) -> int:
    """A digit count that holds x, at most one more than it needs: with
    b = |x|.bit_length(), it is n = (b + 64 + width) // width, and
    |x| < 2^b <= 2^(n width - 65), far inside the n-digit range."""
    return (abs(x).bit_length() + _LIMB_BITS + width) // width


def unpack(x: int, width: int) -> list[int]:
    """The dense coefficients of the packed polynomial x, up to the
    highest nonzero one (none for x = 0).

    At C level, with H the half digits (each 2^(width-1)): x + H makes
    every digit non-negative and ^ H flips each digit's top bit back to
    two's complement; the bytes are cast to 64-bit limbs, the top limb of
    each digit read signed, and lower limbs, if any, are shifted in by
    maps."""
    length = _digits_holding(x, width)
    half = _half_digits(width, length)
    data = ((x + half) ^ half).to_bytes(length * width // 8, sys.byteorder)
    limbs = width // _LIMB_BITS
    digits = _native_limbs(data, "q")[limbs - 1 :: limbs].tolist()
    if limbs > 1:
        unsigned = _native_limbs(data, "Q")
        for t in range(limbs - 2, -1, -1):
            digits = list(
                map(operator.add, map(operator.lshift, digits, itertools.repeat(_LIMB_BITS)),
                    unsigned[t::limbs].tolist())
            )
    while digits and not digits[-1]:
        digits.pop()
    return digits


@functools.cache
def _pascal_table(width: int) -> dict[int, dict[int, int]]:
    """Packed Gaussian binomials [m+d, m] at this width, by diagonal d and
    then m, filled on demand by _gauss_entry.  Entries are only ever
    added, each with its one value, so concurrent fills cannot disagree."""
    return {}


def _gauss_entry(n: int, m: int, c: int, width: int) -> int:
    """[n, m]_q packed at X = 2^width, given c = binomial(n, m), which the
    caller has read: c <= 1 is [n, m] itself (the edges are binomial's).
    A c that does not fit the width is a ConsistencyError, as the caller
    picked the width to fit it.

    Its coefficients are non-negative and sum to C(n, m), so each is at
    most C(n, m), and so is every value the table below forms: each is
    an entry [n', m'] with n'-m' <= n-m and m' <= m, and C(n', m') <=
    C(n, m).  Computed division-free by the Pascal recurrence
    [n, m]_q = [n-1, m-1]_q + q^m [n-1, m]_q, one shift and one add per
    entry.  The table is filled diagonal by diagonal (d = n-m), each up
    to m, so the first term is on the diagonal being filled and the
    second on the one below; no recursion deepens with n.  A fill starts
    at diagonal 0 and reaches every diagonal up to its own; a diagonal
    that already reaches m is passed over.
    """
    if c <= 1:  # m < 0 or n < m gives 0; [n, 0] = [n, n] = 1
        return c
    if c.bit_length() >= width:
        raise ConsistencyError(f"[{n}, {m}]_q does not fit digits of width {width}")
    table = _pascal_table(width)
    diagonal = table.get(n - m, {})
    if m not in diagonal:
        below = {}  # [i-1, i] = 0 below the diagonal d = 0
        for d in range(n - m + 1):
            diagonal = table.setdefault(d, {0: 1})
            for i in range(len(diagonal), m + 1):
                diagonal.setdefault(i, diagonal[i - 1] + (below.get(i, 0) << (i * width)))
            below = diagonal
    return diagonal[m]


def gauss_sum(groups) -> tuple[int, list[int]]:
    """sum over the groups (w, n, m, shifts) of
    w [n, m]_X (X^{s_1} + X^{s_2} + ...), as a dense (low, coeffs): the
    polynomial sum_e coeffs[e] X^{low+e}, with nonzero ends ((0, []) for
    the zero polynomial).  A group whose binomial vanishes (m < 0, or
    0 <= n < m) adds nothing, and only its shifts may be negative.

    Summed as one packed int, one shift and add per shifted binomial, and
    unpacked once; this is the one place that picks a width.  It comes
    from the bound B = sum |w| len(shifts) C(n, m): each [n, m] has
    non-negative coefficients summing to C(n, m), so every coefficient of
    every partial sum is at most B in absolute value, and so is every
    Pascal entry the table forms (each at most C(n, m), see _gauss_entry).
    packed_width(B) leaves every such value a balanced digit, so the
    packed sum is exact.  Each group's binomial is read once, here, and
    handed to _gauss_entry with the width.
    """
    groups = [(w, n, m, shifts, binomial(n, m)) for w, n, m, shifts in groups]
    width = packed_width(sum(abs(w) * len(shifts) * c for w, _, _, shifts, c in groups))
    acc = 0
    for w, n, m, shifts, c in groups:
        if c:
            value = w * _gauss_entry(n, m, c, width)
            for s in shifts:
                acc += value << (s * width)
    if not acc:
        return 0, []
    # the lowest set bit lies in the lowest nonzero digit
    low = ((acc & -acc).bit_length() - 1) // width
    return low, unpack(acc >> (low * width), width)


@functools.lru_cache(maxsize=None, typed=True)  # so 4.0 misses the entry of 4
def gauss_coefficients(n: int, m: int) -> tuple[int, ...]:
    """Dense coefficient tuple of the Gaussian binomial [n, m]_q: the
    gauss_sum of that one binomial, cached; (n, m) pass binomial's rule.

    Entry e is the coefficient of q^e; the empty tuple encodes 0.
    """
    return tuple(gauss_sum([(1, n, m, (0,))])[1])


def _nonzero_ends(coeffs) -> tuple[int, int]:
    """(lo, hi) such that coeffs[lo:hi] runs from the first nonzero
    coefficient to the last, found by scanning in from both ends; (0, 0)
    when every coefficient is zero."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    return lo, hi


def exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Quotient num / den, which must be exact.

    Raises InexactDivisionError when the division leaves a remainder and
    ZeroDivisionError on a zero divisor.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return LaurentPoly.zero()
    rem = dict(num._coeffs)
    div = den._coeffs
    top = max(div)
    lead = div[top]
    # an exact Laurent quotient cannot reach below val(num) - val(den)
    floor = min(rem) - min(div)
    quot: dict[int, int] = {}
    while rem:
        rtop = max(rem)
        e = rtop - top
        if e < floor:
            raise InexactDivisionError("polynomial division is not exact")
        c, r = divmod(rem[rtop], lead)
        if r:
            raise InexactDivisionError("polynomial division is not exact")
        quot[e] = c
        for de, dc in div.items():
            ne = de + e
            v = rem.get(ne, 0) - dc * c
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return LaurentPoly._raw(dict(sorted(quot.items())))
