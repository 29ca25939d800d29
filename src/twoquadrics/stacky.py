"""Exceptional-object counting for the stacky case and the combinatorial
identities behind it.

The decomposition side for the even-dimensional intersection of two
quadrics is built from stacky symmetric powers of the associated stacky
curve (root stacks over projective space); each admits a full
exceptional collection whose length is an explicit binomial sum, and the
total count matches the Euler characteristic of the Fano scheme.  The
identities are verified by exact evaluation over finite ranges, and the
report builders at the end package the stacky count and the two suites
as VerificationReports.  The Chu-Vandermonde suite checks each n one
Pascal row at a time, by additions against a row of math.comb;
chu_vandermonde_check, the check of one instance, is its oracle in the
tests.  Every function checks its own integer inputs through
exactpoly.check_param: the (g, k) of the stacky counts, the parameters of
each identity instance, and the bounds of the two suites
(check_suite_bounds, which the CLI's sweep calls too).
"""

from __future__ import annotations

import itertools
import math
import operator

from .exactpoly import UsageError, check_param
from .fano_even import EvenFanoParams, euler_closed_form, fano_even_betti_numbers
from .motivic import VerificationReport, _status


def fonarev_rank(g: int, k: int) -> int:
    """Length of the full exceptional collection on the k-th stacky
    symmetric power: sum_{t=0..k} (k+1-t) C(2g+1, t)."""
    check_param("g", g, 2)
    check_param("k", k, 0)
    return sum((k + 1 - t) * math.comb(2 * g + 1, t) for t in range(k + 1))


def stacky_collection_length(g: int, k: int) -> int:
    """Total exceptional-object count of the conjectured decomposition:
    sum_{i=0..k+1} C(2g-3-k-i, k+1-i) fonarev_rank(g, i).

    The ranks come from two running sums, not one fonarev_rank call per
    i: fonarev_rank(g, i) = fonarev_rank(g, i-1) + S_i with
    S_i = sum_{t<=i} C(2g+1, t)."""
    EvenFanoParams.check(g, k)
    total = partial = rank = 0
    for i in range(k + 2):
        partial += math.comb(2 * g + 1, i)
        rank += partial
        total += math.comb(2 * g - 3 - k - i, k + 1 - i) * rank
    return total


def gessel_identity_check(m: int, a: int) -> bool:
    """Exact check of 4^m C(m+a/2, m) = sum_{i=0..m} C(m+a-i, a) C(2m+a+1, i)
    for m >= 0 and even a >= 0."""
    check_param("m", m, 0)
    check_param("a", a, 0)
    if a % 2:
        raise UsageError(f"a = {a}: need a even")
    lhs = 4**m * math.comb(m + a // 2, m)
    rhs = sum(math.comb(m + a - i, a) * math.comb(2 * m + a + 1, i) for i in range(m + 1))
    return lhs == rhs


def pascal_columns(top: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Pascal columns 0..top, each `length` entries long: entry i of
    column j is C(i+j, j).  Each column is the running sum of the one
    before, C(i+j, j) = sum_{t<=i} C(t+j-1, j-1), so the table is built
    by additions alone, a route independent of math.comb."""
    check_param("top", top, 0)
    check_param("length", length, 0)
    columns = [(1,) * length]
    for _ in range(top):
        columns.append(tuple(itertools.accumulate(columns[-1])))
    return tuple(columns)


def chu_vandermonde_check(n: int, j: int, k: int) -> bool:
    """Exact check of the hockey-stick variant
    sum_{m=0..n} C(m, j) C(n-m, k-j) = C(n+1, k+1) for 0 <= j <= k <= n.

    The term of m is nonzero only for j <= m <= n-k+j, so the sum is one
    dot product of column j, entries 0..n-k, with column k-j, entries
    n-k..0, of pascal_columns; each call builds only the columns
    0..max(j, k-j), n-k+1 entries each.  The right side is math.comb, a
    route independent of the table."""
    check_param("n", n, 0)
    check_param("k", k, 0, n, "n")
    check_param("j", j, 0, k, "k")
    length = n - k + 1
    columns = pascal_columns(max(j, k - j), length)
    lhs = sum(map(operator.mul, columns[j], columns[k - j][::-1]))
    return lhs == math.comb(n + 1, k + 1)


def check_suite_bounds(max_m: int = 0, max_a: int = 0, max_n: int = 0) -> None:
    """The rule for the bounds of the identity suites, which the suites
    and the sweep's task list share: each bound an int >= 0
    (exactpoly.check_param) and max_a even, so a suite never reports more
    than it checked."""
    check_param("max_m", max_m, 0)
    check_param("max_a", max_a, 0)
    check_param("max_n", max_n, 0)
    if max_a % 2:
        raise UsageError(f"max_a = {max_a}: need max_a even")


# ---------------------------------------------------------------------------
# report builders

def stacky_counts_report(g: int, k: int) -> VerificationReport:
    """Three-way agreement: Euler characteristic of the Hodge-Tate
    diamond (the sum of its even Betti numbers; the odd ones vanish), its
    closed form, and the exceptional-collection count."""
    diamond_euler = sum(fano_even_betti_numbers(EvenFanoParams(g, k)))
    closed = euler_closed_form(g, k)
    count = stacky_collection_length(g, k)
    ok = diamond_euler == closed == count
    return VerificationReport(
        identity="stacky-counts",
        params={"g": g, "k": k},
        status=_status(ok),
        lhs=diamond_euler,
        rhs=closed,
        observations={"collection_length": str(count)},
    )


def _suite_report(identity: str, params: dict, failures: list,
                  instances: int) -> VerificationReport:
    """The report of a suite that checked `instances` cases, of which
    `failures` (each case a list) failed."""
    return VerificationReport(
        identity=identity,
        params=params,
        status=_status(not failures),
        lhs=None,
        rhs=None,
        observations={"failures": failures, "instances": instances},
    )


def gessel_suite_report(max_m: int, max_a: int) -> VerificationReport:
    """gessel_identity_check for every m <= max_m and even a <= max_a."""
    check_suite_bounds(max_m=max_m, max_a=max_a)
    failures = [
        [m, a]
        for m in range(max_m + 1)
        for a in range(0, max_a + 1, 2)
        if not gessel_identity_check(m, a)
    ]
    instances = (max_m + 1) * (max_a // 2 + 1)
    return _suite_report("gessel-identity", {"max_a": max_a, "max_m": max_m}, failures, instances)


def _pascal_rows(max_n: int):
    """Rows 0..max_n of Pascal's triangle, the coefficients of (1+x)^n,
    each built from the one before by one C-level add: a route
    independent of math.comb."""
    row = [1]
    for _ in range(max_n + 1):
        yield row
        row = [1, *map(operator.add, row, row[1:]), 1]


def chu_vandermonde_suite_report(max_n: int) -> VerificationReport:
    """The verdict of chu_vandermonde_check on every 0 <= j <= k <= n <=
    max_n, reached one n at a time; the failures are listed by n, then
    k, then j.

    The left sides sum_m C(m, j) C(n-m, k-j) of one n are the
    coefficients of x^j z^(k-j) in P_n = sum_{m<=n} (1+x)^m (1+z)^(n-m),
    and P_n = (1+z) P_{n-1} + (1+x)^n.  Row j of P_n (t = 0..n-j) is
    therefore row j of P_{n-1}, plus itself shifted by one t, plus
    C(n, j) at t = 0, read from _pascal_rows: one C-level add per row,
    by additions alone.  Each row is compared at once with the right
    sides C(n+1, j+1..n+1), a row of math.comb, and only a row that
    differs is searched for its failing k, to the end of the longer of
    the two, so a right side with no left side fails too."""
    check_suite_bounds(max_n=max_n)
    failures = []
    rows: list[list[int]] = []  # row j of P_{n-1}
    for n, power in enumerate(_pascal_rows(max_n)):
        rows.append([])
        rows = [list(map(operator.add, row + [0], [c, *row])) for row, c in zip(rows, power)]
        rhs = [math.comb(n + 1, s) for s in range(n + 2)]
        wrong = sorted(
            (j + t, j)
            for j, row in enumerate(rows)
            if row != rhs[j + 1 :]
            for t, (lhs, value) in enumerate(itertools.zip_longest(row, rhs[j + 1 :]))
            if lhs != value
        )
        failures += ([n, j, k] for k, j in wrong)
    # one instance per triple 0 <= j <= k <= n <= max_n
    return _suite_report("chu-vandermonde", {"max_n": max_n}, failures, math.comb(max_n + 3, 3))
