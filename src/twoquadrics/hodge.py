"""Hodge diamonds and the numerical measures defined on them.

A diamond stores the full (d+1) x (d+1) table of Hodge numbers of a
smooth projective variety; the constructor enforces Hodge symmetry and
Serre duality eagerly, so everything computed downstream inherits those
guarantees.  The measures (E-polynomial, Betti numbers, Euler
characteristic, Hochschild homology dimensions) are read off the table.
serre_violation, the one Serre-duality rule of every computed Hodge
count, also checks the Fano block and Betti vectors.  check_param (from
exactpoly) is the one rule for an integer parameter of every entry
point, a diamond's d, p, q and m included.  Record, the one record base,
writes an immutable value's init, eq, hash, repr and pickling once over
a field tuple, as for HodgeDiamond; FanoParams is the (g, k) Record of
both Fano cases, and its static check the one (g, k) rule.
"""

from __future__ import annotations

import itertools
import operator

from .exactpoly import BiPoly, LaurentPoly, check_param


class Record:
    """An immutable value record over the field names _FIELDS, which
    __init__ sets in that order (a subclass's __init__ checks or fills
    them first): equal exactly when the class and every field agree,
    hashed as the field tuple, with a repr and pickling that read the
    fields in that order, so unpickling runs the subclass's checks.
    Assigning or deleting a field raises AttributeError."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FanoParams(Record):
    """Parameters (g, k) of the Fano scheme of k-planes on a smooth
    intersection of two quadrics, ints with 2 <= g and 0 <= k <= g-2;
    each case subclasses it with its dimension."""

    __slots__ = _FIELDS = ("g", "k")

    def __init__(self, g: int, k: int):
        self.check(g, k)
        super().__init__(g, k)

    @staticmethod
    def check(g: int, k: int) -> None:
        """The (g, k) rule, building no record: 2 <= g, 0 <= k <= g-2."""
        check_param("g", g, 2)
        check_param("k", k, 0, g - 2, "g-2")


def serre_violation(values, low: int, span: int, label) -> str | None:
    """The one Serre-duality rule of every computed Hodge count: the counts
    values[e] (a non-empty list or tuple of ints) at index low + e must fit
    in 0..span, be non-negative and read the same at t and span - t.  None
    if they do, else the first failure as "label(low)..label(top) does not
    fit in label(0)..label(span)", "label(t) = -1 is not a non-negative
    integer" or "Serre duality fails: label(t) = 1 but label(span-t) = 2".
    The check is C-level comparisons (exact for values with nonzero ends);
    only a failure pads the values into 0..span and searches them."""
    top = low + len(values) - 1
    if low + top == span and low >= 0 and min(values) >= 0 and values == values[::-1]:
        return None
    if low < 0 or top > span:
        return f"{label(low)}..{label(top)} does not fit in {label(0)}..{label(span)}"
    v = [0] * low + list(values) + [0] * (span - top)
    for t, h in enumerate(v):
        if h < 0:
            return f"{label(t)} = {h} is not a non-negative integer"
    t = next((t for t, h in enumerate(v) if h != v[span - t]), None)
    if t is not None:
        return f"Serre duality fails: {label(t)} = {v[t]} but {label(span - t)} = {v[span - t]}"
    return None


class HodgeDiamond(Record):
    """Immutable table of Hodge numbers h^{p,q} of a d-dimensional variety,
    a Record over the row tuple _h.

    The constructor checks a square shape, entries of type int (a bool is
    refused), Hodge symmetry (each row equals its column), then
    serre_violation on the row-major list, entry i = h^{p,q} for (p, q) =
    divmod(i, d+1): Serre duality h^{p,q} = h^{d-p,d-q} says that this
    list is a palindrome.  Each check is C-level and searches only on a
    failure, which is a ValueError; unpickling runs them too."""

    __slots__ = _FIELDS = ("_h",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if not n:
            raise ValueError("a Hodge diamond needs at least the (0, 0) entry")
        for p, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {p} has length {len(row)}, expected {n}")
        flat = tuple(itertools.chain.from_iterable(rows))

        def label(i: int) -> str:
            return "h^{%d,%d}" % divmod(i, n)

        if not {int}.issuperset(map(type, flat)):
            i = next(i for i, h in enumerate(flat) if type(h) is not int)
            raise ValueError(f"{label(i)} = {flat[i]!r} is not of type int")
        if not all(map(operator.eq, rows, zip(*rows))):
            p, q = next((p, q) for p in range(n) for q in range(n) if rows[p][q] != rows[q][p])
            raise ValueError(
                f"Hodge symmetry fails: h^{{{p},{q}}} = {rows[p][q]} "
                f"but h^{{{q},{p}}} = {rows[q][p]}"
            )
        violation = serre_violation(flat, 0, n * n - 1, label)
        if violation:
            raise ValueError(violation)
        super().__init__(rows)

    @classmethod
    def from_e_polynomial(cls, e: BiPoly, d: int) -> "HodgeDiamond":
        """The diamond of pure cohomology with E-polynomial e: h^{p,q} =
        (-1)^{p+q} e_{p,q}, so a term of the wrong sign is a negative entry,
        and a term outside 0..d is a ValueError."""
        check_param("d", d, 0)
        h = [[0] * (d + 1) for _ in range(d + 1)]
        for (p, q), c in e.items():
            if not (0 <= p <= d and 0 <= q <= d):
                raise ValueError(f"term x^{p} y^{q} does not fit in dimension {d}")
            h[p][q] = -c if (p + q) % 2 else c
        return cls(h)

    @property
    def dimension(self) -> int:
        return len(self._h) - 1

    def hodge_number(self, p: int, q: int) -> int:
        check_param("p", p, 0, self.dimension, "d")
        check_param("q", q, 0, self.dimension, "d")
        return self._h[p][q]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._h

    def betti(self, m: int) -> int:
        """m-th Betti number, the sum of h^{p,q} over p + q = m."""
        d = self.dimension
        check_param("m", m, 0, 2 * d, "2d")
        return sum(self._h[p][m - p] for p in range(max(0, m - d), min(d, m) + 1))

    def betti_numbers(self) -> tuple[int, ...]:
        """All Betti numbers b_0..b_{2d}: row p is added in at offset p."""
        d = self.dimension
        b = [0] * (2 * d + 1)
        for p, row in enumerate(self._h):
            b[p:p + d + 1] = map(operator.add, b[p:p + d + 1], row)
        return tuple(b)

    def euler(self) -> int:
        b = self.betti_numbers()
        return sum(b[::2]) - sum(b[1::2])

    def e_polynomial(self) -> BiPoly:
        """E-polynomial: sum of (-1)^{p+q} h^{p,q} x^p y^q."""
        return BiPoly(
            ((p, q), (h if (p + q) % 2 == 0 else -h))
            for p, row in enumerate(self._h)
            for q, h in enumerate(row)
            if h
        )

    def hochschild_polynomial(self) -> LaurentPoly:
        """Hochschild homology dimensions as a Laurent polynomial in t.

        The coefficient of t^i is the sum of h^{p,q} over q - p = i,
        which is dim HH_i by Hochschild-Kostant-Rosenberg.
        """
        return LaurentPoly(
            (q - p, h) for p, row in enumerate(self._h) for q, h in enumerate(row) if h
        )

    def to_text(self) -> str:
        """Centered diamond layout: row m holds h^{p,q} with p + q = m,
        p - q increasing left to right."""
        d = self.dimension
        rows = []
        for m in range(2 * d + 1):
            lo, hi = max(0, m - d), min(d, m)
            rows.append([self._h[p][m - p] for p in range(lo, hi + 1)])
        cell = max(len(str(v)) for row in rows for v in row)
        lines = [" ".join(str(v).rjust(cell) for v in row) for row in rows]
        width = max(len(line) for line in lines)
        return "\n".join(line.center(width).rstrip() for line in lines)

    def to_json_obj(self) -> dict:
        return {"dimension": self.dimension, "hodge": [list(row) for row in self._h]}

    def __repr__(self) -> str:
        return f"HodgeDiamond(dimension={self.dimension})"
