import math

import pytest

from twoquadrics import stacky
from twoquadrics.fano_even import euler_closed_form
from twoquadrics.stacky import (
    chu_vandermonde_check,
    chu_vandermonde_suite_report,
    fonarev_rank,
    gessel_identity_check,
    pascal_columns,
    stacky_collection_length,
)


def chu_vandermonde_by_comb(n, j, k):
    """Oracle: the former route of chu_vandermonde_check, the sum over
    every m of two math.comb values."""
    return sum(math.comb(m, j) * math.comb(n - m, k - j) for m in range(n + 1))


def collection_length_by_ranks(g, k):
    """Oracle: the former route of stacky_collection_length, one
    fonarev_rank call per i."""
    return sum(math.comb(2 * g - 3 - k - i, k + 1 - i) * fonarev_rank(g, i) for i in range(k + 2))


def gessel_series_check(m, a):
    """Oracle, the former stacky.gessel_series_check: a second route to
    Gessel's identity.  The coefficient of x^m in the truncated power
    series (1-4x)^{-(a/2+1)}, expanded by repeated convolution of the
    geometric series, must equal the binomial sum."""
    if m < 0:
        raise ValueError(f"m = {m}: need m >= 0")
    if a < 0 or a % 2:
        raise ValueError(f"a = {a}: need a >= 0 even")
    geometric = [4**j for j in range(m + 1)]
    series = [1] + [0] * m
    for _ in range(a // 2 + 1):
        series = [
            sum(series[j] * geometric[i - j] for j in range(i + 1)) for i in range(m + 1)
        ]
    rhs = sum(math.comb(m + a - i, a) * math.comb(2 * m + a + 1, i) for i in range(m + 1))
    return series[m] == rhs


class TestFonarevRank:
    @pytest.mark.parametrize("g", [2, 3, 7])
    def test_k0_is_one(self, g):
        assert fonarev_rank(g, 0) == 1

    def test_g2_k1(self):
        assert fonarev_rank(2, 1) == 7

    def test_g4_k2(self):
        assert fonarev_rank(4, 2) == 57

    @pytest.mark.parametrize("g", [2, 3, 5, 8])
    def test_strictly_increasing_in_k(self, g):
        values = [fonarev_rank(g, k) for k in range(g + 3)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fonarev_rank(1, 0)
        with pytest.raises(ValueError):
            fonarev_rank(3, -1)


class TestStackyCollectionLength:
    def test_g2_k0(self):
        assert stacky_collection_length(2, 0) == 8

    def test_g3_k1(self):
        assert stacky_collection_length(3, 1) == 48

    @pytest.mark.parametrize("g", range(2, 31))
    def test_matches_euler_closed_form(self, g):
        for k in range(g - 1):
            assert stacky_collection_length(g, k) == euler_closed_form(g, k) == math.comb(
                g, k + 1
            ) * 4 ** (k + 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            stacky_collection_length(2, 1)

    def test_matches_fonarev_rank_route_up_to_40(self):
        for g in range(2, 41):
            for k in range(g - 1):
                assert stacky_collection_length(g, k) == collection_length_by_ranks(g, k), (g, k)


class TestGesselIdentity:
    def test_m1_a2(self):
        assert 4 * math.comb(2, 1) == math.comb(3, 2) + math.comb(5, 1) * math.comb(2, 2)
        assert gessel_identity_check(1, 2)

    @pytest.mark.parametrize("a", [0, 2, 8, 30])
    def test_m0(self, a):
        assert gessel_identity_check(0, a)

    def test_large_instance(self):
        assert gessel_identity_check(30, 60)

    def test_full_range(self):
        for m in range(31):
            for a in range(0, 61, 2):
                assert gessel_identity_check(m, a), (m, a)

    def test_series_route_agrees(self):
        for m in range(13):
            for a in range(0, 13, 2):
                assert gessel_series_check(m, a), (m, a)

    def test_odd_a_rejected(self):
        with pytest.raises(ValueError):
            gessel_identity_check(2, 3)
        with pytest.raises(ValueError):
            gessel_series_check(2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gessel_identity_check(-1, 2)


class TestChuVandermonde:
    def test_n3_j1_k1(self):
        assert sum(math.comb(m, 1) * math.comb(3 - m, 0) for m in range(4)) == 6
        assert chu_vandermonde_check(3, 1, 1)

    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_j0_k0(self, n):
        assert chu_vandermonde_check(n, 0, 0)

    def test_n10_j2_k5(self):
        assert chu_vandermonde_check(10, 2, 5)

    def test_full_range(self):
        for n in range(41):
            for k in range(n + 1):
                for j in range(k + 1):
                    assert chu_vandermonde_check(n, j, k), (n, j, k)

    def test_matches_comb_route_up_to_60(self):
        # the dot product of the two columns is the former sum, and the
        # verdicts agree
        columns = pascal_columns(60, 61)
        for n in range(61):
            for k in range(n + 1):
                rhs = math.comb(n + 1, k + 1)
                for j in range(k + 1):
                    by_comb = chu_vandermonde_by_comb(n, j, k)
                    left, right = columns[j][: n - k + 1], columns[k - j][n - k :: -1]
                    assert sum(x * y for x, y in zip(left, right)) == by_comb, (n, j, k)
                    assert chu_vandermonde_check(n, j, k) == (by_comb == rhs), (n, j, k)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            chu_vandermonde_check(3, 2, 1)
        with pytest.raises(ValueError):
            chu_vandermonde_check(2, 0, 3)


class TestPascalColumns:
    def test_entries_are_binomials_up_to_60(self):
        columns = pascal_columns(60, 61)
        for j in range(61):
            assert columns[j] == tuple(math.comb(i + j, j) for i in range(61)), j

    def test_table_has_the_shape_asked_for(self):
        assert [len(c) for c in pascal_columns(3, 5)] == [5] * 4
        assert pascal_columns(0, 0) == ((),)
        assert pascal_columns(2, 1) == ((1,), (1,), (1,))

    def test_check_builds_only_the_columns_it_reads(self, monkeypatch):
        # columns j and k-j, entries 0..n-k, of an n = 60 instance
        shapes = []
        columns = stacky.pascal_columns

        def recorded(top, length):
            shapes.append((top, length))
            return columns(top, length)

        monkeypatch.setattr(stacky, "pascal_columns", recorded)
        assert chu_vandermonde_check(60, 3, 10) and chu_vandermonde_check(60, 50, 50)
        assert shapes == [(7, 51), (50, 11)]

    @pytest.fixture
    def plant(self, monkeypatch):
        """plant(j, i) adds 1 to C(i+j, j), entry i of column j, in every
        table stacky.pascal_columns returns that holds it."""
        columns = stacky.pascal_columns

        def install(j, i):
            def planted(top, length):
                table = [list(column) for column in columns(top, length)]
                if j <= top and i < length:
                    table[j][i] += 1
                return tuple(map(tuple, table))

            monkeypatch.setattr(stacky, "pascal_columns", planted)

        return install

    def test_planted_entry_fails_the_check(self, plant):
        assert chu_vandermonde_check(5, 2, 2)
        plant(2, 3)  # C(5, 2) = 10 becomes 11
        assert not chu_vandermonde_check(5, 2, 2)
        assert not chu_vandermonde_check(7, 1, 3)  # as the reversed column C(., k-j)
        assert chu_vandermonde_check(5, 2, 3)  # reads C(m, 2) only for m <= 4


def checked_cases(max_n):
    """Oracle: every case (n, j, k) of the Chu-Vandermonde suite up to
    max_n, in the suite's order (n, then k, then j), with the verdict of
    chu_vandermonde_check on it."""
    return [
        ((n, j, k), chu_vandermonde_check(n, j, k))
        for n in range(max_n + 1)
        for k in range(n + 1)
        for j in range(k + 1)
    ]


def oracle_report(cases):
    """The status and observations a suite over the checked `cases` must
    report."""
    failures = tuple(case for case, ok in cases if not ok)
    return ("failed" if failures else "verified"), (
        ("failures", failures), ("instances", len(cases)),
    )


class TestChuVandermondeSuite:
    """The row route of chu_vandermonde_suite_report against its oracle,
    chu_vandermonde_check on every case."""

    def test_matches_the_check_on_every_case_up_to_40(self):
        cases = checked_cases(40)
        for max_n in range(41):
            report = chu_vandermonde_suite_report(max_n)
            expected = oracle_report([c for c in cases if c[0][0] <= max_n])
            assert (report.status, report.observations) == expected, max_n

    def test_planted_right_side_fails_both_routes_alike(self, monkeypatch):
        # one wrong C(n+1, k+1) fails (n, j, k) for every j <= k, on both
        # routes; (31, 2) lies past the largest n checked
        comb = math.comb
        planted = {(9, 4), (13, 7), (13, 13), (31, 2)}
        monkeypatch.setattr(math, "comb", lambda a, b: comb(a, b) + ((a, b) in planted))
        report = chu_vandermonde_suite_report(20)
        assert dict(report.observations)["failures"] == (
            *((8, j, 3) for j in range(4)),
            *((12, j, 6) for j in range(7)),
            *((12, j, 12) for j in range(13)),
        )
        assert (report.status, report.observations) == oracle_report(checked_cases(20))

    @pytest.fixture
    def plant(self, monkeypatch):
        """plant(n, j) adds 1 to C(n, j), entry j of row n of
        stacky._pascal_rows, the (1+x)^n that the row route adds into row
        j of P_n; the rows after it are built from the true row."""
        rows = stacky._pascal_rows

        def install(n, j):
            def planted(max_n):
                for i, row in enumerate(rows(max_n)):
                    yield [c + (t == j) for t, c in enumerate(row)] if i == n else row

            monkeypatch.setattr(stacky, "_pascal_rows", planted)

        return install

    def test_planted_entry_fails_the_suite(self, plant):
        plant(5, 2)  # C(5, 2) = 10 becomes 11
        report = chu_vandermonde_suite_report(10)
        assert report.status == "failed"
        # the extra x^2 of P_5 is multiplied by (1+z)^(n-5) on the way to
        # P_n, so it adds C(n-5, k-2) to the left side of (n, 2, k): every
        # k with k - 2 <= n - 5 fails, and no other case
        assert dict(report.observations)["failures"] == tuple(
            (n, j, k)
            for n in range(11)
            for k in range(n + 1)
            for j in range(k + 1)
            if j == 2 and n >= 5 and k - j <= n - 5
        )
