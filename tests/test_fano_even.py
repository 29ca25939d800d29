import math

import pytest

from list_routes import eval_at_one, list_betti_numbers, max_abs, pack

from twoquadrics import exactpoly, fano_even
from twoquadrics.exactpoly import _gauss_entry, gauss_coefficients, unpack
from twoquadrics.fano_even import (
    EvenFanoParams,
    euler_closed_form,
    fano_even_betti,
    fano_even_betti_numbers,
    fano_even_diamond,
)
from twoquadrics.hodge import ConsistencyError
from twoquadrics.stacky import stacky_collection_length


def betti_by_j_sum(params, p):
    """Oracle: b_{2p} as the sum over j = 0..k+1 of
    C(2g+1, j) [q^{p-j(g-k-1)}] [2g-k-j-1, k+1-j]_q, one p at a time."""
    g, k = params.g, params.k
    total = 0
    for j in range(k + 2):
        r = p - j * (g - k - 1)
        coeffs = gauss_coefficients(2 * g - k - j - 1, k + 1 - j)
        if 0 <= r < len(coeffs):
            total += math.comb(2 * g + 1, j) * coeffs[r]
    return total


class TestParams:
    def test_dimension(self):
        assert EvenFanoParams(2, 0).dimension == 2
        assert EvenFanoParams(3, 1).dimension == 4

    @pytest.mark.parametrize("g,k", [(1, 0), (2, 1), (5, 4), (3, -1)])
    def test_invalid_rejected(self, g, k):
        with pytest.raises(ValueError):
            EvenFanoParams(g, k)


class TestBetti:
    def test_degree_four_del_pezzo(self):
        params = EvenFanoParams(2, 0)
        assert [fano_even_betti(params, p) for p in range(3)] == [1, 6, 1]

    def test_out_of_range_is_zero(self):
        params = EvenFanoParams(2, 0)
        assert fano_even_betti(params, -1) == 0
        assert fano_even_betti(params, 3) == 0

    @pytest.mark.parametrize("g,k", [(2, 0), (3, 0), (3, 1), (5, 2)])
    def test_connectedness(self, g, k):
        assert fano_even_betti(EvenFanoParams(g, k), 0) == 1

    @pytest.mark.parametrize("g", range(2, 9))
    def test_palindromic(self, g):
        for k in range(g - 1):
            params = EvenFanoParams(g, k)
            d = params.dimension
            for p in range(d + 1):
                assert fano_even_betti(params, p) == fano_even_betti(params, d - p)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_sums_to_closed_form(self, g):
        for k in range(g - 1):
            params = EvenFanoParams(g, k)
            total = sum(fano_even_betti(params, p) for p in range(params.dimension + 1))
            assert total == euler_closed_form(g, k)


class TestBettiVector:
    @pytest.mark.parametrize("g", range(2, 15))
    def test_matches_j_sum_oracle(self, g):
        for k in range(g - 1):
            params = EvenFanoParams(g, k)
            expected = [betti_by_j_sum(params, p) for p in range(params.dimension + 1)]
            assert list(fano_even_betti_numbers(params)) == expected, (g, k)

    def test_matches_j_sum_oracle_deep(self):
        params = EvenFanoParams(30, 14)
        expected = [betti_by_j_sum(params, p) for p in range(params.dimension + 1)]
        assert list(fano_even_betti_numbers(params)) == expected

    @pytest.mark.parametrize("g", range(2, 41))
    def test_matches_list_route(self, g):
        for k in range(g - 1):
            assert fano_even_betti_numbers(EvenFanoParams(g, k)) == list_betti_numbers(g, k)

    def test_width_exceeds_every_partial_sum(self, gauss_sum_widths):
        for g in range(2, 41):
            for k in range(g - 1):
                fano_even_betti_numbers(EvenFanoParams(g, k))
                seen = []
                list_betti_numbers(g, k, seen)
                assert max_abs(seen).bit_length() + 1 <= gauss_sum_widths[-1], (g, k)
        # at g <= 30 the bound reaches 68 bits: two limbs per coefficient
        assert set(gauss_sum_widths) == {64, 128}

    def test_betti_reads_the_vector(self):
        params = EvenFanoParams(5, 2)
        betti = fano_even_betti_numbers(params)
        assert [fano_even_betti(params, p) for p in range(-2, len(betti) + 2)] == [
            0, 0, *betti, 0, 0,
        ]


class TestBettiVectorGuards:
    """A corrupted Gaussian coefficient must raise, not yield a vector."""

    PARAMS = EvenFanoParams(4, 1)  # dimension 8; block j = 0 is [6, 2]_q

    @pytest.fixture
    def corrupt(self, monkeypatch):
        def install(edit):
            def patched(n, m, c, width):
                value = _gauss_entry(n, m, c, width)
                if (n, m) != (6, 2):
                    return value
                return pack(edit(unpack(value, width, m * (n - m) + 1)), width)

            monkeypatch.setattr(exactpoly, "_gauss_entry", patched)

        return install

    def test_asymmetric_coefficient_is_inconsistent(self, corrupt):
        def bump_last(c):
            c[-1] += 1
            return c

        corrupt(bump_last)
        with pytest.raises(
            ConsistencyError, match=r"^Serre duality fails: b_\{0\} = 1 but b_\{16\} = 2$"
        ):
            fano_even_betti_numbers(self.PARAMS)

    def test_negative_entry_is_inconsistent(self, corrupt):
        def sink_ends(c):
            c[0] -= 10
            c[-1] -= 10
            return c

        corrupt(sink_ends)
        with pytest.raises(
            ConsistencyError, match=r"^b_\{0\} = -9 is not a non-negative integer$"
        ):
            fano_even_betti_numbers(self.PARAMS)

    # a packed block has no trailing zeros, so the block that runs past the
    # top degree carries a nonzero coefficient there
    def test_block_past_top_degree_is_inconsistent(self, corrupt):
        corrupt(lambda c: c + [1])
        with pytest.raises(ConsistencyError, match="ends at degree 9 > 8"):
            fano_even_betti_numbers(self.PARAMS)

    def test_sum_past_top_degree_is_inconsistent(self, monkeypatch):
        # a sum that ends past d while each block, summed alone, does not
        gauss_sum = fano_even.gauss_sum

        def planted(groups):
            low, coeffs = gauss_sum(groups)
            return (low, coeffs + [0, 1]) if len(groups) > 1 else (low, coeffs)

        monkeypatch.setattr(fano_even, "gauss_sum", planted)
        with pytest.raises(
            ConsistencyError, match=r"^b_\{0\}\.\.b_\{20\} does not fit in b_\{0\}\.\.b_\{16\}$"
        ):
            fano_even_betti_numbers(self.PARAMS)

    def test_cache_holds_no_corrupted_vector(self, corrupt):
        corrupt(lambda c: c + [1])
        with pytest.raises(ConsistencyError):
            fano_even_betti_numbers(self.PARAMS)
        corrupt(lambda c: c)
        assert sum(fano_even_betti_numbers(self.PARAMS)) == euler_closed_form(4, 1)


class TestDiamond:
    def test_degree_four_del_pezzo(self):
        dia = fano_even_diamond(EvenFanoParams(2, 0))
        assert dia.rows() == ((1, 0, 0), (0, 6, 0), (0, 0, 1))

    def test_g3_k1_euler(self):
        assert fano_even_diamond(EvenFanoParams(3, 1)).euler() == 48

    def test_g3_k0_second_betti(self):
        assert fano_even_diamond(EvenFanoParams(3, 0)).betti(2) == 1

    @pytest.mark.parametrize("g", range(2, 9))
    def test_hodge_tate_and_even_degrees(self, g):
        for k in range(g - 1):
            dia = fano_even_diamond(EvenFanoParams(g, k))
            for p in range(dia.dimension + 1):
                for q in range(dia.dimension + 1):
                    if p != q:
                        assert dia.hodge_number(p, q) == 0
            assert all(dia.betti(m) == 0 for m in range(1, 2 * dia.dimension + 1, 2))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_diagonal_is_the_betti_vector(self, g):
        for k in range(g - 1):
            params = EvenFanoParams(g, k)
            dia = fano_even_diamond(params)
            assert dia.betti_numbers()[::2] == fano_even_betti_numbers(params)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_hochschild_concentrated_in_degree_zero(self, g):
        for k in range(g - 1):
            hh = fano_even_diamond(EvenFanoParams(g, k)).hochschild_polynomial()
            assert hh.items() == ((0, eval_at_one(hh)),)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_picard_rank_one_below_top_k(self, g):
        for k in range(g - 2):
            assert fano_even_diamond(EvenFanoParams(g, k)).betti(2) == 1

    def test_top_k_second_betti(self):
        # for k = g-2 the Picard rank jumps: b_2 = 2g + 2
        for g in range(2, 7):
            assert fano_even_diamond(EvenFanoParams(g, g - 2)).betti(2) == 2 * g + 2


class TestEulerClosedForm:
    def test_values(self):
        assert euler_closed_form(2, 0) == 8
        assert euler_closed_form(3, 1) == 48

    @pytest.mark.parametrize("g", range(2, 7))
    def test_degenerate_top_k(self, g):
        assert euler_closed_form(g, g - 1) == 4**g

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            euler_closed_form(2, 2)
        with pytest.raises(ValueError):
            euler_closed_form(1, 0)

    @pytest.mark.parametrize("g", range(2, 21))
    def test_diamond_euler_matches(self, g):
        for k in range(g - 1):
            params = EvenFanoParams(g, k)
            betti_sum = sum(fano_even_betti_numbers(params))
            assert betti_sum == fano_even_diamond(params).euler() == euler_closed_form(g, k)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_collection_length_matches(self, g):
        for k in range(g - 1):
            assert stacky_collection_length(g, k) == euler_closed_form(g, k)
