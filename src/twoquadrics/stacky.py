"""Exceptional-object counting for the stacky case and the combinatorial
identities behind it.

The decomposition side for the even-dimensional intersection of two
quadrics is built from stacky symmetric powers of the associated stacky
curve (root stacks over projective space); each admits a full
exceptional collection whose length is an explicit binomial sum, and the
total count matches the Euler characteristic of the Fano scheme.  The
identities are verified by exact evaluation over finite ranges, and the
report builders at the end package the stacky count and the two suites
as VerificationReports.  Every function checks its own integer inputs
through hodge.check_param: the (g, k) of the stacky counts, the
parameters of each identity instance, and the bounds of the two suites
(check_suite_bounds, which the CLI's sweep calls too).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .fano_even import EvenFanoParams, euler_closed_form, fano_even_betti_numbers
from .hodge import check_param
from .motivic import FAILED, VERIFIED, VerificationReport


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
    EvenFanoParams(g, k)
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
        raise ValueError(f"a = {a}: need a even")
    lhs = 4**m * math.comb(m + a // 2, m)
    rhs = sum(math.comb(m + a - i, a) * math.comb(2 * m + a + 1, i) for i in range(m + 1))
    return lhs == rhs


@functools.lru_cache(maxsize=1, typed=True)
def pascal_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """Pascal columns covering every C(m, j) with 0 <= j <= m <= n:
    entry i of column j is C(i+j, j), for i <= n-j, O(n^2) entries.  Each
    column is the running sum of the one before, C(i+j, j) =
    sum_{t<=i} C(t+j-1, j-1), so the table is built by additions alone, a
    route independent of math.comb.  Only the last table is cached: a
    suite asks for each n many times in a row."""
    check_param("n", n, 0)
    columns = [(1,) * (n + 1)]
    for j in range(1, n + 1):
        columns.append(tuple(itertools.accumulate(columns[-1][: n - j + 1])))
    return tuple(columns)


def chu_vandermonde_check(n: int, j: int, k: int) -> bool:
    """Exact check of the hockey-stick variant
    sum_{m=0..n} C(m, j) C(n-m, k-j) = C(n+1, k+1) for 0 <= j <= k <= n.

    The term of m is nonzero only for j <= m <= n-k+j, so the sum is one
    dot product of column j, entries 0..n-k, with column k-j, entries
    n-k..0, of pascal_columns; the right side is math.comb, a route
    independent of the table."""
    check_param("n", n, 0)
    check_param("k", k, 0, n, "n")
    check_param("j", j, 0, k, "k")
    columns = pascal_columns(n)
    length = n - k + 1
    lhs = sum(map(operator.mul, columns[j][:length], columns[k - j][length - 1 :: -1]))
    return lhs == math.comb(n + 1, k + 1)


def check_suite_bounds(max_m: int = 0, max_a: int = 0, max_n: int = 0) -> None:
    """The rule for the bounds of the identity suites, which the suites
    and the sweep's task list share: each bound an int >= 0
    (hodge.check_param) and max_a even, so a suite never reports more
    than it checked."""
    check_param("max_m", max_m, 0)
    check_param("max_a", max_a, 0)
    check_param("max_n", max_n, 0)
    if max_a % 2:
        raise ValueError(f"max_a = {max_a}: need max_a even")


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
        status=VERIFIED if ok else FAILED,
        lhs=diamond_euler,
        rhs=closed,
        observations={"collection_length": str(count)},
    )


def _suite_report(identity: str, params: dict, check, cases) -> VerificationReport:
    """Run `check` on every case of `cases`, counting the instances while
    collecting the cases that fail."""
    failures = []
    instances = 0
    for instances, case in enumerate(cases, 1):
        if not check(*case):
            failures.append(list(case))
    return VerificationReport(
        identity=identity,
        params=params,
        status=VERIFIED if not failures else FAILED,
        lhs=None,
        rhs=None,
        observations={"failures": failures, "instances": instances},
    )


def gessel_suite_report(max_m: int, max_a: int) -> VerificationReport:
    """gessel_identity_check for every m <= max_m and even a <= max_a."""
    check_suite_bounds(max_m=max_m, max_a=max_a)
    cases = ((m, a) for m in range(max_m + 1) for a in range(0, max_a + 1, 2))
    return _suite_report(
        "gessel-identity", {"max_a": max_a, "max_m": max_m}, gessel_identity_check, cases
    )


def chu_vandermonde_suite_report(max_n: int) -> VerificationReport:
    """chu_vandermonde_check for every 0 <= j <= k <= n <= max_n."""
    check_suite_bounds(max_n=max_n)
    cases = ((n, j, k) for n in range(max_n + 1) for k in range(n + 1) for j in range(k + 1))
    return _suite_report("chu-vandermonde", {"max_n": max_n}, chu_vandermonde_check, cases)
