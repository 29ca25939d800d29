import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from list_routes import (
    div_one_minus_power,
    list_gauss_sum,
    list_kernel_coefficients,
    max_abs,
    mul_one_minus_power,
    multiplicity,
    trim_blocks,
)

import twoquadrics
from twoquadrics import fano_odd
from twoquadrics.curves import curve_diamond, projective_space_diamond
from twoquadrics.exactpoly import (
    BiPoly,
    LaurentPoly,
    _pascal_table,
    binomial,
    exact_divide,
    gauss_sum,
)
from twoquadrics.fano_even import EvenFanoParams
from twoquadrics.fano_odd import (
    OddFanoParams,
    fano_odd_blocks,
    fano_odd_diamond,
    kernel_coefficients,
    multiplicity_kernel,
)
from twoquadrics.hodge import ConsistencyError, HodgeDiamond

# the full g=4, k=1 diamond: nonzero entries and their symmetric/dual images
G4K1_NONZERO = {
    (0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 2, (4, 4): 3, (5, 5): 18,
    (6, 6): 3, (7, 7): 2, (8, 8): 2, (9, 9): 1, (10, 10): 1,
    (3, 2): 4, (2, 3): 4, (4, 3): 4, (3, 4): 4, (5, 4): 4, (4, 5): 4,
    (6, 5): 4, (5, 6): 4, (7, 6): 4, (6, 7): 4, (8, 7): 4, (7, 8): 4,
    (6, 4): 6, (4, 6): 6,
}


def in_contract_pairs():
    return [(a, b) for a in range(2, 9) for b in range(a - 1, 11)]


def kernel_by_products(a, b):
    """Oracle: the former route, the numerator expanded densely in u = q^2
    over all its factors and every denominator factor divided out."""
    coeffs = [1]
    mul_one_minus_power(coeffs, 2 * b)
    for ell in range(b - a + 2, a + b - 1):
        mul_one_minus_power(coeffs, ell)
    for ell in range(1, 2 * a - 1):
        div_one_minus_power(coeffs, ell)
    shift = -(b - a + 1) * (2 * a - 1)
    return LaurentPoly((2 * e + shift, c) for e, c in enumerate(coeffs) if c)


def kernel_by_division(a, b):
    """Oracle: the kernel as a sparse product divided by `exact_divide`."""
    num = LaurentPoly({0: 1, 4 * b: -1})
    for ell in range(b - a + 2, a + b - 1):
        num = num * LaurentPoly({0: 1, 2 * ell: -1})
    den = LaurentPoly({0: 1})
    for ell in range(1, 2 * a - 1):
        den = den * LaurentPoly({0: 1, 2 * ell: -1})
    return exact_divide(num, den).shift(-(b - a + 1) * (2 * a - 1))


def _odd_blocks(params: OddFanoParams):
    """The blocks (g-j, t, mult) of blocks_by_kernel_terms, one per kernel
    term, checked for degree and parity."""
    g, k = params.g, params.k
    d = params.dimension
    for j in range(g - k - 1, g + 1):
        for c, mult in multiplicity_kernel(g - k, j).items():
            m = d - c
            if not 0 <= m <= 2 * d:
                raise ConsistencyError(
                    f"block (g, k, j) = ({g}, {k}, {j}): kernel term q^{c} lands in "
                    f"degree {m}, outside 0..{2 * d}"
                )
            delta = m - (g - j)
            if delta < 0 or delta % 2:
                raise ConsistencyError(
                    f"block (g, k, j, m) = ({g}, {k}, {j}, {m}): twist offset "
                    f"{delta}/2 is not a non-negative integer"
                )
            yield g - j, delta // 2, mult


def blocks_by_kernel_terms(params: OddFanoParams) -> tuple[tuple[int, ...], ...]:
    """Oracle: the former block vector, each term of the sparse kernel
    yielded by _odd_blocks and scattered into a dense vector."""
    g, k = params.g, params.k
    d = params.dimension
    vectors = [[0] * (d - r + 1) for r in range(k + 2)]
    for r, t, mult in _odd_blocks(params):
        if t + r > d:
            raise ConsistencyError(
                f"block (r, t) = ({r}, {t}) of (g, k) = ({g}, {k}) does not fit in dimension {d}"
            )
        vectors[r][t] += mult
    for r, v in enumerate(vectors):
        if min(v) < 0:
            raise ConsistencyError(
                f"negative multiplicity of wedge^{r} H^1 for (g, k) = ({g}, {k})"
            )
        if v != v[::-1]:
            t = next(t for t in range(len(v)) if v[t] != v[-1 - t])
            raise ConsistencyError(
                f"Serre duality fails: wedge^{r} H^1(-{t}) has multiplicity {v[t]} "
                f"but wedge^{r} H^1(-{d - r - t}) has {v[-1 - t]}"
            )
    return tuple(map(tuple, vectors))


def trimmed_blocks_by_kernel_terms(params: OddFanoParams):
    """The dense oracle blocks_by_kernel_terms in the trimmed form of
    fano_odd_blocks."""
    return trim_blocks((r, 0, v) for r, v in enumerate(blocks_by_kernel_terms(params)))


def diamond_by_degree_scan(g, k):
    """Oracle: the diamond assembled by scanning every degree m = 0..2d and
    every p = 0..d, one multiplicity lookup per (m, j)."""
    d = OddFanoParams(g, k).dimension
    comb_g = [math.comb(g, r) for r in range(g + 1)]
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for m in range(2 * d + 1):
        lo, hi = max(0, m - d), min(d, m)
        for j in range(g - k - 1, g + 1):
            mult = multiplicity(g - k, j, d - m)
            if not mult:
                continue
            delta = m - (g - j)
            assert delta >= 0 and delta % 2 == 0, (g, k, j, m)
            t = delta // 2
            for p in range(lo, hi + 1):
                pa, qa = p - t, (m - p) - t
                if 0 <= pa <= g and 0 <= qa <= g:
                    h[p][m - p] += mult * comb_g[pa] * comb_g[qa]
    return HodgeDiamond(h)


class TestParams:
    def test_dimension(self):
        assert OddFanoParams(4, 1).dimension == 10
        assert OddFanoParams(2, 0).dimension == 3

    @pytest.mark.parametrize("g,k", [(1, 0), (2, 1), (3, 2), (4, -1), (2, -1)])
    def test_invalid_rejected(self, g, k):
        with pytest.raises(ValueError):
            OddFanoParams(g, k)


@pytest.mark.parametrize("cls", [OddFanoParams, EvenFanoParams])
class TestParamsRecord:
    """Both parameter classes: one validated, immutable (g, k) record."""

    def test_keyword_construction_and_value_equality(self, cls):
        params = cls(g=4, k=1)
        assert (params.g, params.k) == (4, 1)
        assert params == cls(4, 1) and hash(params) == hash(cls(4, 1)) == hash((4, 1))
        assert params != cls(4, 2) and params != (4, 1)
        assert repr(params) == f"{cls.__name__}(g=4, k=1)"
        assert pickle.loads(pickle.dumps(params)) == params

    def test_immutable(self, cls):
        params = cls(4, 1)
        with pytest.raises(AttributeError):
            params.g = 5
        with pytest.raises(AttributeError):
            del params.k
        with pytest.raises(AttributeError):
            params.extra = 1
        assert (params.g, params.k) == (4, 1)

    @pytest.mark.parametrize(
        "g,k,message",
        [
            (1, 0, "g = 1: need g >= 2"),
            (4, 3, "k = 3: need 0 <= k <= g-2 = 2"),
            (4, -1, "k = -1: need 0 <= k <= g-2 = 2"),
        ],
    )
    def test_value_error_messages(self, cls, g, k, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(g, k)


def test_odd_and_even_params_never_compare_equal():
    assert OddFanoParams(4, 1) != EvenFanoParams(4, 1)


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, about 15 ms of every fresh interpreter
    code = "import sys, twoquadrics.cli as cli; cli.build_parser(); print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(twoquadrics.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert "'twoquadrics.cli'" in out and "'dataclasses'" not in out


class TestMultiplicity:
    def test_a2_b2(self):
        assert multiplicity(2, 2, 3) == 1
        assert multiplicity(2, 2, 0) == 0
        assert {c for c in range(-9, 10) if multiplicity(2, 2, c)} == {-3, -1, 1, 3}

    def test_a2_b1_is_delta(self):
        assert multiplicity(2, 1, 0) == 1
        assert all(multiplicity(2, 1, c) == 0 for c in range(-12, 13) if c != 0)

    def test_a3_b3(self):
        nonzero = {c for c in range(-20, 21) if multiplicity(3, 3, c)}
        assert nonzero == {-5, -3, -1, 1, 3, 5}
        assert all(multiplicity(3, 3, c) == 1 for c in nonzero)

    def test_out_of_contract_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_kernel(1, 3)
        with pytest.raises(ValueError):
            multiplicity_kernel(3, 1)

    def test_symmetric_in_c(self):
        for a, b in in_contract_pairs():
            for c in range(61):
                assert multiplicity(a, b, c) == multiplicity(a, b, -c), (a, b, c)

    def test_parity_vanishing(self):
        for a, b in in_contract_pairs():
            parity = (b - a + 1) % 2
            for c in range(-60, 61):
                if c % 2 != parity:
                    assert multiplicity(a, b, c) == 0, (a, b, c)

    def test_kernel_coefficients_non_negative(self):
        for a, b in in_contract_pairs():
            assert multiplicity_kernel(a, b).is_effective(), (a, b)


class TestKernelOracle:
    @pytest.mark.parametrize("a", range(2, 12))
    def test_matches_division_route(self, a):
        for b in range(a - 1, 30):
            assert multiplicity_kernel(a, b) == kernel_by_division(a, b), (a, b)
            assert multiplicity_kernel(a, b) == kernel_by_products(a, b), (a, b)

    @pytest.mark.parametrize("a,b", [(19, 34), (21, 39)])
    def test_matches_division_route_deep(self, a, b):
        assert multiplicity_kernel(a, b) == kernel_by_division(a, b)
        assert multiplicity_kernel(a, b) == kernel_by_products(a, b)

    def test_cold_chain_has_no_deep_recursion(self, fresh_odd_caches):
        # K(2, 1200) from cold caches in one call: its Pascal entries are
        # filled diagonal by diagonal, with no recursion in b
        _pascal_table.cache_clear()
        assert multiplicity_kernel(2, 1200) == kernel_by_products(2, 1200)


def kernel_groups(a, b):
    """The kernel K(a, b) as gauss_sum groups, in u = q^2:
    [a+b-1, b-a+1]_u + u^{a+b-1} [a+b-2, b-a]_u."""
    return [(1, a + b - 1, b - a + 1, (0,)), (1, a + b - 2, b - a, (a + b - 1,))]


class TestPackedKernelChain:
    """The kernels, each one packed Gaussian sum, against the former
    chain of list steps and the product formula, and the width of each
    sum against the values the list route of that sum forms."""

    @pytest.mark.parametrize("a", range(2, 41))
    def test_matches_list_steps(self, a):
        for b in range(a - 1, 81):
            low, coeffs = kernel_coefficients(a, b)
            # in u = q^2 from u^0, with the nonzero ends fano_odd_blocks reads
            assert low == 0 and coeffs[0] == coeffs[-1] == 1, (a, b)
            assert coeffs == list_kernel_coefficients(a, b), (a, b)

    @pytest.mark.parametrize("a", range(2, 41))
    def test_matches_product_formula(self, a):
        # the oracle expands 2a-2 factors at each b; past a = 11 every
        # ninth b, and b = 80, keep the suite's time down
        for b in sorted({*range(a - 1, 81, 1 if a < 12 else 9), 80}):
            assert multiplicity_kernel(a, b) == kernel_by_products(a, b), (a, b)

    @pytest.mark.parametrize("a", range(2, 21))
    def test_width_exceeds_every_value_a_step_forms(
        self, a, fresh_odd_caches, gauss_sum_widths
    ):
        # each step of the sum is one shift and add of a binomial
        for b in range(a - 1, 61):
            kernel_coefficients(a, b)
            seen = []
            assert list_gauss_sum(kernel_groups(a, b), seen) == (
                0, list(list_kernel_coefficients(a, b))
            )
            assert max_abs(seen).bit_length() + 1 <= gauss_sum_widths[-1], (a, b)

    def test_width_rests_on_the_kernel_value_at_one(self):
        # the width bound C(a+b-1, b-a+1) + C(a+b-2, b-a) is K(a, b)(1),
        # which the product form gives as b C(a+b-2, 2a-3) / (a-1)
        for a in range(2, 21):
            for b in range(a - 1, 61):
                total = sum(list_kernel_coefficients(a, b))
                bound = sum(len(s) * binomial(n, m) for _, n, m, s in kernel_groups(a, b))
                assert bound == total, (a, b)
                assert total * (a - 1) == b * math.comb(a + b - 2, 2 * a - 3), (a, b)

    def test_wide_digits_are_exercised(self, fresh_odd_caches, gauss_sum_widths):
        # K(20, 60)(1) is about 2^75, so the kernels of a = 20 cross from
        # one limb per coefficient to two
        for b in range(19, 61):
            kernel_coefficients(20, b)
        assert set(gauss_sum_widths) == {64, 128}


class TestFanoOddDiamond:
    def test_g2_k0(self):
        dia = fano_odd_diamond(OddFanoParams(2, 0))
        expected = [[0] * 4 for _ in range(4)]
        for p in range(4):
            expected[p][p] = 1
        expected[2][1] = expected[1][2] = 2
        assert dia.rows() == tuple(tuple(r) for r in expected)

    def test_g4_k1_full_table(self):
        dia = fano_odd_diamond(OddFanoParams(4, 1))
        assert dia.dimension == 10
        for p in range(11):
            for q in range(11):
                assert dia.hodge_number(p, q) == G4K1_NONZERO.get((p, q), 0), (p, q)

    def test_g4_k1_euler_vanishes(self):
        dia = fano_odd_diamond(OddFanoParams(4, 1))
        evens = sum(dia.betti(m) for m in range(0, 21, 2))
        odds = sum(dia.betti(m) for m in range(1, 21, 2))
        assert (evens, odds) == (48, 48)
        assert dia.euler() == 0

    @pytest.mark.parametrize("g", range(2, 11))
    def test_matches_degree_scan_all_k(self, g):
        for k in range(g - 1):
            assert fano_odd_diamond(OddFanoParams(g, k)) == diamond_by_degree_scan(g, k), k

    def test_kernel_term_outside_degree_range_is_inconsistent(
        self, monkeypatch, fresh_odd_caches
    ):
        # (g, k) = (3, 0) has d = 5; u^-1 in the j = 3 kernel, read forwards
        # from twist 0, would put wedge^0 H^1 at twist -1, in degree m = -2
        monkeypatch.setattr(fano_odd, "kernel_coefficients", lambda a, b: (-1, (1,)))
        message = "wedge^0 H^1(1)..wedge^0 H^1(1) does not fit in wedge^0 H^1(0)..wedge^0 H^1(-5)"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            fano_odd_diamond.__wrapped__(OddFanoParams(3, 0))

    @pytest.mark.parametrize("g", range(2, 11))
    def test_blocks_are_the_kernel_terms(self, g):
        # copies of wedge^r H^1(-t) = multiplicity(g-k, g-r, d-r-2t)
        for k in range(g - 1):
            d = OddFanoParams(g, k).dimension
            blocks = fano_odd_blocks(OddFanoParams(g, k))
            assert len(blocks) == k + 2
            dense = [
                (r, 0, [multiplicity(g - k, g - r, d - r - 2 * t) for t in range(d - r + 1)])
                for r in range(k + 2)
            ]
            assert blocks == trim_blocks(dense), (g, k)

    @pytest.mark.parametrize("g", range(2, 41))
    def test_blocks_match_kernel_term_scatter(self, g):
        for k in range(g - 1):
            params = OddFanoParams(g, k)
            assert fano_odd_blocks(params) == trimmed_blocks_by_kernel_terms(params), k

    @pytest.mark.parametrize("g", range(2, 11))
    def test_valid_structure_all_k(self, g):
        for k in range(g - 1):
            dia = fano_odd_diamond(OddFanoParams(g, k))
            assert dia.dimension == (k + 1) * (2 * g - 2 * k - 1)
            assert dia.hodge_number(0, 0) == 1
            assert dia.betti(1) == 0
            assert dia.betti(2) == 1

    @pytest.mark.parametrize("g", range(2, 11))
    def test_k0_matches_quadric_pencil_identity(self, g):
        lhs = fano_odd_diamond(OddFanoParams(g, 0)).e_polynomial()
        shift = BiPoly({(g - 1, g - 1): 1})
        rhs = (
            projective_space_diamond(2 * g - 1).e_polynomial()
            - shift * projective_space_diamond(1).e_polynomial()
            + shift * curve_diamond(g).e_polynomial()
        )
        assert lhs == rhs


def binomial_form_blocks(g, k):
    """Oracle: the block vectors as two Gaussian binomials in L each,
    V_r = L^(E_r - m1(n1-m1)) [n1, m1]_L
    + L^(E_r - n1 - (m1-1)(n1-m1)) [n1-1, m1-1]_L, n1 = 2g-k-r-1,
    m1 = k-r+1 and E_r = ((2k-r+2)(2g-2k-1) - r)/2, the twist of the u^0
    term of the r kernel read backwards, summed by gauss_sum, with no
    kernel."""
    blocks = []
    for r in range(k + 2):
        n1, m1 = 2 * g - k - r - 1, k - r + 1
        e = ((2 * k - r + 2) * (2 * g - 2 * k - 1) - r) // 2
        low, coeffs = gauss_sum([
            (1, n1, m1, (e - m1 * (n1 - m1),)),
            (1, n1 - 1, m1 - 1, (e - n1 - (m1 - 1) * (n1 - m1),)),
        ])
        if coeffs:
            blocks.append((r, low, tuple(coeffs)))
    return tuple(blocks)


class TestBinomialForm:
    """The blocks fano_odd_blocks reads off the kernels are the two-binomial
    form of each V_r in L."""

    @pytest.mark.parametrize("g", range(2, 41))
    def test_blocks_are_two_binomials(self, g):
        for k in range(g - 1):
            assert fano_odd_blocks(OddFanoParams(g, k)) == binomial_form_blocks(g, k), k


class TestBlockVectorGuards:
    """A corrupted kernel must raise, not yield a vector.  A kernel in
    u = L is read forwards from the integer twist r(g-k-1) (see
    fano_odd_blocks), so a block can only fail to fit, hold a negative
    entry or break Serre duality; a planted term u^e of the j kernel lands
    at twist 3 - j + e."""

    PARAMS = OddFanoParams(3, 1)  # dimension 6; r = 3 - j for j = 1..3

    @pytest.fixture
    def plant(self, plant_kernel):
        return plant_kernel

    def test_negative_entry_is_inconsistent(self, plant):
        # -5 copies each of wedge^0 H^1(-0) and its Serre dual wedge^0 H^1(-6)
        plant(3, {0: -5, 6: -5})
        with pytest.raises(
            ConsistencyError,
            match=r"^wedge\^0 H\^1\(0\) = -4 is not a non-negative integer$",
        ):
            fano_odd_blocks(self.PARAMS)

    def test_asymmetric_entry_is_inconsistent(self, plant):
        plant(3, {6: 1})
        with pytest.raises(
            ConsistencyError,
            match=r"^Serre duality fails: wedge\^0 H\^1\(0\) = 1 but wedge\^0 H\^1\(-6\) = 2$",
        ):
            fano_odd_blocks(self.PARAMS)

    def test_uncentred_palindrome_is_inconsistent(self, monkeypatch, fresh_odd_caches):
        # the j = 3 kernel u^1 alone gives the block (0, 1, (1,)) read
        # forwards, and (0, 5, (1,)) in the oracle, which reads its q^-4 in
        # centred q backwards: each fits and is a palindrome, but t = 1 and
        # t = 5 are each other's Serre duals in d - r = 6
        original = fano_odd.kernel_coefficients
        monkeypatch.setattr(
            fano_odd, "kernel_coefficients", lambda a, b: (1, (1,)) if b == 3 else original(a, b)
        )
        with pytest.raises(
            ConsistencyError,
            match=r"^Serre duality fails: wedge\^0 H\^1\(-1\) has multiplicity 0 "
            r"but wedge\^0 H\^1\(-5\) has 1$",
        ):
            blocks_by_kernel_terms(self.PARAMS)
        with pytest.raises(
            ConsistencyError,
            match=r"^Serre duality fails: wedge\^0 H\^1\(-1\) = 1 but wedge\^0 H\^1\(-5\) = 0$",
        ):
            fano_odd_blocks(self.PARAMS)

    def test_block_that_does_not_fit_is_inconsistent(self, plant):
        # u^-3 in the j = 1 kernel puts wedge^2 H^1 at twist 2 - 3 = -1,
        # in degree 0 < r
        plant(1, {-3: 1})
        with pytest.raises(
            ConsistencyError,
            match=r"^wedge\^2 H\^1\(1\)\.\.wedge\^2 H\^1\(-2\) "
            r"does not fit in wedge\^2 H\^1\(0\)\.\.wedge\^2 H\^1\(-4\)$",
        ):
            fano_odd_blocks(self.PARAMS)

    @pytest.mark.parametrize(
        "j,kernel,span,room",
        [
            # u^e of the j kernel at twist 3 - j + e: u^3 at twist 5 > d - r = 4
            (1, (3, (1,)), "5..5", 4),
            (3, (7, (1,)), "7..7", 6),  # u^7 at twist 7 > 6
            (2, (0, (1, 0, 0, 0, 1, 1)), "1..6", 5),  # u^0 and u^4 fit, u^5 does not
            (1, (-3, (1, 0, 0, 0, 0, 0, 0, 1)), "-1..6", 4),  # u^-3 and u^4: both ends
        ],
    )
    def test_term_outside_the_block_does_not_fit(
        self, monkeypatch, fresh_odd_caches, j, kernel, span, room
    ):
        # the term scan of the oracle refuses each of these kernels too
        original = fano_odd.kernel_coefficients
        monkeypatch.setattr(
            fano_odd, "kernel_coefficients", lambda a, b: kernel if b == j else original(a, b)
        )
        with pytest.raises(ConsistencyError):
            blocks_by_kernel_terms(self.PARAMS)
        low, top = map(int, span.split(".."))
        r = 3 - j
        message = (
            f"wedge^{r} H^1({-low})..wedge^{r} H^1({-top}) "
            f"does not fit in wedge^{r} H^1(0)..wedge^{r} H^1({-room})"
        )
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            fano_odd_blocks(self.PARAMS)

    @pytest.mark.parametrize("j,low", [(1, 0), (2, 1), (3, 50), (2, -50)])
    def test_zero_kernel_gives_the_zero_vector(self, monkeypatch, fresh_odd_caches, j, low):
        # the zero vector of r = 3 - j has no entry; no check raises on it,
        # wherever its low would put it
        expected = fano_odd_blocks(self.PARAMS)
        assert 3 - j in [r for r, _, _ in expected]
        expected = tuple(block for block in expected if block[0] != 3 - j)
        original = fano_odd.kernel_coefficients
        monkeypatch.setattr(
            fano_odd, "kernel_coefficients", lambda a, b: (low, ()) if b == j else original(a, b)
        )
        assert fano_odd_blocks(self.PARAMS) == expected

    def test_cache_holds_no_corrupted_vector(self, plant, monkeypatch):
        kernel = fano_odd.kernel_coefficients
        plant(1, {-3: 1})
        with pytest.raises(ConsistencyError):
            fano_odd_diamond(self.PARAMS)
        monkeypatch.setattr(fano_odd, "kernel_coefficients", kernel)
        assert fano_odd_diamond(self.PARAMS) == diamond_by_degree_scan(3, 1)
