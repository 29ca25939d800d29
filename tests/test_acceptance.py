"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time and asserting the stated budget.

Run via pytest, or standalone with `python tests/test_acceptance.py`.
"""

import math
import time

from list_routes import (
    block_triples,
    eval_at_one,
    gauss_binomial,
    loop_block_diamond,
    multiplicity,
)

from twoquadrics.curves import curve_diamond, projective_space_diamond, sym_curve_diamond
from twoquadrics.exactpoly import (
    BiPoly,
    LaurentPoly,
    binomial,
    gauss_coefficients,
)
from twoquadrics.fano_even import EvenFanoParams, euler_closed_form, fano_even_diamond
from twoquadrics.fano_odd import OddFanoParams, fano_odd_blocks, fano_odd_diamond
from twoquadrics.motivic import multiplicity_polynomial, verify_decomposition
from twoquadrics.stacky import (
    chu_vandermonde_check,
    gessel_identity_check,
    stacky_collection_length,
)


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} {status} {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_reference_diamonds():
    with _Criterion(1, "g=4 k=1 diamond and its curve blocks", 1.0):
        fano = fano_odd_diamond(OddFanoParams(4, 1))
        assert fano.hodge_number(5, 5) == 18
        assert fano.hodge_number(6, 4) == fano.hodge_number(4, 6) == 6
        assert fano.hodge_number(3, 2) == 4
        assert fano.betti(0) == 1
        assert fano.betti(10) == 30

        curve = curve_diamond(4)
        assert curve.hodge_number(1, 0) == curve.hodge_number(0, 1) == 4

        square = sym_curve_diamond(4, 2)
        assert square.hodge_number(1, 1) == 17
        assert square.hodge_number(2, 0) == 6
        assert square.hodge_number(1, 0) == 4
        assert square.hodge_number(0, 0) == 1


def test_criterion_02_multiplicity_polynomials_g4_k1():
    with _Criterion(2, "g=4 k=1 multiplicity polynomials", 1.0):
        assert multiplicity_polynomial(4, 1, 0) == LaurentPoly.power_sum(
            (0, 1, 2, 4, 5, 6, 8, 9, 10)
        )
        assert multiplicity_polynomial(4, 1, 1) == LaurentPoly.power_sum((2, 3, 6, 7))
        assert multiplicity_polynomial(4, 1, 2) == LaurentPoly({4: 1})


def test_criterion_03_decomposition_sweep():
    with _Criterion(3, "decomposition identity sweep g<=12 incl. effectivity", 60.0):
        count = 0
        for g in range(2, 13):
            for k in range(g - 1):
                report = verify_decomposition(g, k)
                assert report.verified, (g, k, report.status)
                assert report.lhs == report.rhs
                # the block route against the former per-block loop's dense diamond
                params = OddFanoParams(g, k)
                vectors = fano_odd_blocks(params)
                oracle = loop_block_diamond(g, params.dimension, block_triples(vectors))
                assert report.lhs == oracle.e_polynomial(), (g, k)
                assert all(ok for _, ok in report.effectivity), (g, k)
                count += 1
        assert count == 66


def test_criterion_04_value_at_one_closed_form():
    with _Criterion(4, "multiplicity value at L=1 closed form g<=40", 10.0):
        for g in range(2, 41):
            for k in range(g - 1):
                n = 2 * g - 4 - k
                for i in range(k + 2):
                    expected = binomial(n - i, k + 1 - i) + 2 * binomial(n - i, k - i)
                    assert eval_at_one(multiplicity_polynomial(g, k, i)) == expected, (g, k, i)


def test_criterion_05_k0_oracle():
    with _Criterion(5, "k=0 diamonds against the quadric-pencil identity g<=12", 5.0):
        for g in range(2, 13):
            lhs = fano_odd_diamond(OddFanoParams(g, 0)).e_polynomial()
            shift = BiPoly({(g - 1, g - 1): 1})
            rhs = (
                projective_space_diamond(2 * g - 1).e_polynomial()
                - shift * projective_space_diamond(1).e_polynomial()
                + shift * curve_diamond(g).e_polynomial()
            )
            assert lhs == rhs, g


def test_criterion_06_top_k_multiplicities():
    with _Criterion(6, "k=g-2 multiplicities match the known moduli identity g<=12", 5.0):
        for g in range(2, 13):
            for i in range(g - 1):
                expected = LaurentPoly.power_sum((i, 3 * g - 3 - 2 * i))
                assert multiplicity_polynomial(g, g - 2, i) == expected, (g, i)
            assert multiplicity_polynomial(g, g - 2, g - 1) == LaurentPoly({g - 1: 1}), g


def test_criterion_07_stacky_agreement():
    with _Criterion(7, "Euler characteristic vs exceptional count g<=20", 30.0):
        for g in range(2, 21):
            for k in range(g - 1):
                closed = math.comb(g, k + 1) * 4 ** (k + 1)
                assert euler_closed_form(g, k) == closed
                assert stacky_collection_length(g, k) == closed, (g, k)
                assert fano_even_diamond(EvenFanoParams(g, k)).euler() == closed, (g, k)


def test_criterion_08_binomial_identity_suites():
    with _Criterion(8, "binomial identity suites", 10.0):
        for m in range(31):
            for a in range(0, 61, 2):
                assert gessel_identity_check(m, a), (m, a)
        for n in range(41):
            for k in range(n + 1):
                for j in range(k + 1):
                    assert chu_vandermonde_check(n, j, k), (n, j, k)


def test_criterion_09_structural_properties():
    with _Criterion(9, "structural property suite", 30.0):
        # hyperelliptic diamonds: symmetry and duality are enforced by the
        # constructor, so construction succeeding checks them; Picard rank 1
        # gives b_1 = 0, b_2 = 1
        for g in range(2, 11):
            for k in range(g - 1):
                dia = fano_odd_diamond(OddFanoParams(g, k))
                assert dia.hodge_number(0, 0) == 1
                assert dia.betti(1) == 0
                assert dia.betti(2) == 1
        # stacky diamonds: odd-degree vanishing, Hodge-Tateness, b_2 = 1
        # wherever the Picard rank is 1 (k <= g-3)
        for g in range(2, 11):
            for k in range(g - 1):
                dia = fano_even_diamond(EvenFanoParams(g, k))
                assert dia.hodge_number(0, 0) == 1
                rows = dia.rows()
                for p in range(dia.dimension + 1):
                    for q in range(dia.dimension + 1):
                        if p != q:
                            assert rows[p][q] == 0
                assert all(dia.betti(m) == 0 for m in range(1, 2 * dia.dimension, 2))
                if k <= g - 3:
                    assert dia.betti(2) == 1
        # multiplicity kernel is symmetric in its centered argument
        for a in range(2, 9):
            for b in range(a - 1, 11):
                for c in range(61):
                    assert multiplicity(a, b, c) == multiplicity(a, b, -c)
        # q-binomial laws: Pascal recurrence, symmetry, value at 1
        q = LaurentPoly({1: 1})
        for n in range(1, 41):
            for m in range(n + 1):
                assert gauss_coefficients(n, m) == gauss_coefficients(n, n - m)
                assert eval_at_one(gauss_binomial(n, m)) == binomial(n, m)
                if m >= 1:
                    pascal = gauss_binomial(n - 1, m - 1) + q.shift(m - 1) * gauss_binomial(
                        n - 1, m
                    )
                    assert gauss_binomial(n, m) == pascal


def test_criterion_10_sanity_anchors():
    with _Criterion(10, "sanity anchors", 1.0):
        del_pezzo = fano_even_diamond(EvenFanoParams(2, 0))
        assert del_pezzo.rows() == ((1, 0, 0), (0, 6, 0), (0, 0, 1))

        threefold = fano_odd_diamond(OddFanoParams(2, 0))
        assert threefold.hodge_number(2, 1) == 2
        assert threefold.euler() == 0

        assert fano_odd_diamond(OddFanoParams(4, 1)).euler() == 0


if __name__ == "__main__":
    import sys
    import traceback

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_") and callable(fn):
            try:
                fn()
            except Exception:
                failures += 1
                traceback.print_exc()
    sys.exit(1 if failures else 0)
