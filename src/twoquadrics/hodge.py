"""Hodge diamonds and the numerical measures defined on them.

A diamond stores the full (d+1) x (d+1) table of Hodge numbers of a
smooth projective variety; the constructor enforces Hodge symmetry and
Serre duality eagerly, so everything computed downstream inherits those
guarantees.  The measures (E-polynomial, Betti numbers, Euler
characteristic, Hochschild homology dimensions) are read off the table.
check_param (from exactpoly) is the one rule for an integer parameter
of every entry point, a diamond's d, p, q and m included, and
ConsistencyError (from exactpoly too) is what a computed diamond that
breaks a symmetry raises; Record and FrozenRecord write eq, hash, repr
and pickling once over a field tuple, and FanoParams is the (g, k)
FrozenRecord of both Fano cases.
"""

from __future__ import annotations

import itertools
import operator

from .exactpoly import BiPoly, ConsistencyError, LaurentPoly, check_param


class Record:
    """A value record over the field names _FIELDS: equal exactly when the
    class and every field agree, with a repr and pickling that read the
    fields in that order (each subclass's __init__ takes them so);
    unhashable, as its fields may be reassigned."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable Record, hashed as its field tuple; __init__ sets the
    fields by object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class FanoParams(FrozenRecord):
    """Parameters (g, k) of the Fano scheme of k-planes on a smooth
    intersection of two quadrics, ints with 2 <= g and 0 <= k <= g-2;
    each case subclasses it with its dimension."""

    __slots__ = _FIELDS = ("g", "k")

    def __init__(self, g: int, k: int):
        check_param("g", g, 2)
        check_param("k", k, 0, g - 2, "g-2")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", k)


def _is_valid_table(rows: tuple[tuple, ...]) -> bool:
    """Every check of HodgeDiamond at C speed: square shape, non-negative
    entries of type int (a bool is refused), Hodge symmetry (each row
    equals its column) and Serre duality (each row equals the mirrored
    row d - p reversed)."""
    n = len(rows)
    return (
        all(len(row) == n for row in rows)
        and {int}.issuperset(map(type, itertools.chain.from_iterable(rows)))
        and min(itertools.chain.from_iterable(rows)) >= 0
        and all(map(operator.eq, rows, zip(*rows)))
        and all(map(operator.eq, rows, (row[::-1] for row in reversed(rows))))
    )


def _raise_first_violation(rows: tuple[tuple, ...]) -> None:
    """Name the first entry, in row order, that _is_valid_table rejected."""
    d = len(rows) - 1
    for p, row in enumerate(rows):
        if len(row) != d + 1:
            raise ValueError(f"row {p} has length {len(row)}, expected {d + 1}")
        for q, h in enumerate(row):
            if type(h) is not int or h < 0:
                raise ValueError(f"h^{{{p},{q}}} = {h!r} is not a non-negative integer")
    for p in range(d + 1):
        for q in range(p, d + 1):
            if rows[p][q] != rows[q][p]:
                raise ValueError(
                    f"Hodge symmetry fails: h^{{{p},{q}}} = {rows[p][q]} "
                    f"but h^{{{q},{p}}} = {rows[q][p]}"
                )
            if rows[p][q] != rows[d - p][d - q]:
                raise ValueError(
                    f"Serre duality fails: h^{{{p},{q}}} = {rows[p][q]} "
                    f"but h^{{{d - p},{d - q}}} = {rows[d - p][d - q]}"
                )
    raise ConsistencyError("the fast diamond check rejected a table the entry check accepts")


class HodgeDiamond:
    """Immutable table of Hodge numbers h^{p,q} of a d-dimensional variety."""

    __slots__ = ("_dim", "_h")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        d = len(rows) - 1
        if d < 0:
            raise ValueError("a Hodge diamond needs at least the (0, 0) entry")
        if not _is_valid_table(rows):
            _raise_first_violation(rows)
        self._dim = d
        self._h = rows

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
        return self._dim

    def hodge_number(self, p: int, q: int) -> int:
        check_param("p", p, 0, self._dim, "d")
        check_param("q", q, 0, self._dim, "d")
        return self._h[p][q]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._h

    def betti(self, m: int) -> int:
        """m-th Betti number, the sum of h^{p,q} over p + q = m."""
        d = self._dim
        check_param("m", m, 0, 2 * d, "2d")
        return sum(self._h[p][m - p] for p in range(max(0, m - d), min(d, m) + 1))

    def betti_numbers(self) -> tuple[int, ...]:
        """All Betti numbers b_0..b_{2d}: row p is added in at offset p."""
        d = self._dim
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
        d = self._dim
        rows = []
        for m in range(2 * d + 1):
            lo, hi = max(0, m - d), min(d, m)
            rows.append([self._h[p][m - p] for p in range(lo, hi + 1)])
        cell = max(len(str(v)) for row in rows for v in row)
        lines = [" ".join(str(v).rjust(cell) for v in row) for row in rows]
        width = max(len(line) for line in lines)
        return "\n".join(line.center(width).rstrip() for line in lines)

    def to_json_obj(self) -> dict:
        return {"dimension": self._dim, "hodge": [list(row) for row in self._h]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self._h == other._h

    def __hash__(self) -> int:
        return hash(self._h)

    def __repr__(self) -> str:
        return f"HodgeDiamond(dimension={self._dim})"
