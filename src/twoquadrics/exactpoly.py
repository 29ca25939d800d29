"""Exact integer polynomial arithmetic.

Laurent polynomials in one variable, polynomials in two commuting
variables, and Gaussian (q-)binomial coefficients.  The two polynomial
classes share one sparse core for their arithmetic, comparison and
printing.  Coefficients are arbitrary-precision Python ints, so every
operation is exact and downstream identity checks are literal
polynomial equalities; the constructors take int exponents and
coefficients only and raise TypeError on anything else.

All values are immutable after construction and all operations are pure;
the Gaussian-binomial memo cache is safe for concurrent use under the
GIL and never changes results.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Mapping


class InexactDivisionError(ArithmeticError):
    """A polynomial division left a nonzero remainder."""


def _power(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


class _SparsePoly:
    """Immutable sparse polynomial: a dict from exponent keys to nonzero
    ints, stored in ascending key order, so a reader walks the terms in
    order without sorting them.  A subclass gives the key form (_key,
    _add_keys) and the monomial format of its pretty; the arithmetic,
    comparison and printing below are shared.  Operands of different
    subclasses never combine and never compare equal.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        key_of = self._key
        out: dict = {}
        for key, c in items:
            key = key_of(key)
            if not isinstance(c, int):
                raise TypeError(f"{type(self).__name__} coefficients must be ints, got {c!r}")
            if c:
                v = out.get(key, 0) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
        self._coeffs = dict(sorted(out.items()))

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
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return self._raw(dict(sorted(out.items())))

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
        out: dict = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                k = add_keys(k1, k2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
        return self._raw(dict(sorted(out.items())))

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
        if not isinstance(e, int):
            raise TypeError(f"LaurentPoly exponents must be ints, got {e!r}")
        return e

    _add_keys = staticmethod(operator.add)
    __mul__ = __rmul__ = _SparsePoly._product

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

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
        """Multiply by q^n."""
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
        p, q = key
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError(f"BiPoly exponents must be ints, got {key!r}")
        return (p, q)

    @staticmethod
    def _add_keys(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    __mul__ = __rmul__ = _SparsePoly._product

    @classmethod
    def from_diagonal(cls, p: LaurentPoly) -> "BiPoly":
        """Substitute the Laurent variable by x*y (each L^e becomes x^e y^e)."""
        return cls._raw({(e, e): c for e, c in p._coeffs.items()})

    def evaluate(self, x: int, y: int) -> int:
        total = 0
        for (p, q), c in self._coeffs.items():
            if p < 0 or q < 0:
                raise ValueError("evaluate requires non-negative exponents")
            total += c * x**p * y**q
        return total

    def pretty(self, x: str = "x", y: str = "y") -> str:
        return self._pretty(lambda k: "*".join(filter(None, (_power(x, k[0]), _power(y, k[1])))))


def eval_at_one(p: LaurentPoly) -> int:
    """Sum of all coefficients (the value at q = 1)."""
    return sum(p._coeffs.values())


def binomial(n: int, m: int) -> int:
    """Binomial coefficient with the edge conventions used throughout.

    m < 0 gives 0 and m = 0 gives 1 for every n, including negative n
    (these conventions are forced by the top symmetric-power multiplicity
    being 1); 0 <= n < m gives 0.  Negative n with m >= 1 never occurs in
    any formula here and is rejected.
    """
    if m < 0:
        return 0
    if m == 0:
        return 1
    if n < 0:
        raise ValueError(f"binomial({n}, {m}) with n < 0, m >= 1 is undefined here")
    return math.comb(n, m)


@functools.cache
def _pascal_diagonal(d: int) -> dict[int, tuple[int, ...]]:
    """[m+d, m]_q by m, filled on demand by gauss_coefficients, seeded
    with m = 0.  Entries are only ever added, each with its one value, so
    concurrent fills cannot disagree."""
    return {0: (1,)}


@functools.cache
def gauss_coefficients(n: int, m: int) -> tuple[int, ...]:
    """Dense coefficient tuple of the Gaussian binomial [n, m]_q.

    Entry e is the coefficient of q^e; the empty tuple encodes 0.
    Computed division-free by the Pascal recurrence
    [n, m]_q = [n-1, m-1]_q + q^m [n-1, m]_q: a copy of the first term,
    padded to degree m(n-m), and one slice update adding the second,
    which for n > m ends exactly at that degree.  The table is filled
    diagonal by diagonal (d = n-m), each up to m, so the first term is on
    the diagonal being filled and the second on the one below; no
    recursion deepens with n.  A fill reaches every diagonal below its
    own, so it starts above the highest one that already reaches m.
    """
    if m < 0:
        return ()
    if m == 0:
        return (1,)
    if n < 0:
        raise ValueError(f"gauss_binomial({n}, {m}) with n < 0, m >= 1 is undefined here")
    if n < m:
        return ()
    diagonal = _pascal_diagonal(n - m)
    if m not in diagonal:
        start = n - m
        while start and m not in _pascal_diagonal(start - 1):
            start -= 1
        # [i-1, i] = 0 below the diagonal d = 0
        below = _pascal_diagonal(start - 1) if start else {}
        for d in range(start, n - m + 1):
            diagonal = _pascal_diagonal(d)
            for i in range(len(diagonal), m + 1):
                low = diagonal[i - 1]
                out = list(low) + [0] * (i * d + 1 - len(low))
                out[i:] = map(operator.add, out[i:], below.get(i, ()))
                diagonal.setdefault(i, tuple(out))
            below = diagonal
    return diagonal[m]


def gauss_binomial(n: int, m: int) -> LaurentPoly:
    """Gaussian binomial coefficient [n, m]_q as a polynomial in q."""
    return LaurentPoly._raw({e: c for e, c in enumerate(gauss_coefficients(n, m)) if c})


def mul_one_minus_power(coeffs: list[int], s: int) -> None:
    """Multiply the dense polynomial `coeffs` (entry e is the coefficient
    of q^e) by 1 - q^s in place, for s >= 1."""
    coeffs.extend([0] * s)
    # the right-hand slices are copies, so every subtrahend is an old value
    coeffs[s:] = map(operator.sub, coeffs[s:], coeffs[:-s])


def div_one_minus_power(coeffs: list[int], s: int) -> None:
    """Divide the dense polynomial `coeffs` by 1 - q^s in place, for s >= 1.

    The quotient series is the stride-s running sum of the coefficients.
    It is a polynomial exactly when its top s coefficients (the dropped
    tail) vanish; otherwise InexactDivisionError is raised.
    """
    n = len(coeffs)
    for r in range(min(s, n)):
        coeffs[r:n:s] = itertools.accumulate(coeffs[r:n:s])
    top = max(n - s, 0)
    if any(coeffs[top:]):
        raise InexactDivisionError(f"polynomial division by 1 - q^{s} is not exact")
    del coeffs[top:]


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
