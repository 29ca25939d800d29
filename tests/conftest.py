"""Fixtures that corrupt the multiplicity kernels on purpose, shared by
the tests of the odd block vector, the decomposition report and the CLI,
the recorder of the widths gauss_sum picks, shared by the width tests of
its callers, and one that empties every cache of the package around a
test that breaks the width proof."""

import importlib
import pkgutil

import pytest

import twoquadrics
from twoquadrics import exactpoly, fano_odd
from twoquadrics.exactpoly import LaurentPoly


def dense_plus(kernel, shift, extra):
    """The kernel (low, coeffs) in u = q^2, whose centred-q form is shifted
    by `shift`, plus the centred-q terms `extra` (exponent -> coefficient,
    all of the kernel's parity), again as (low, coeffs) in u with nonzero
    ends, the contract of gauss_sum."""
    low, coeffs = kernel
    total = LaurentPoly({shift + 2 * (low + e): c for e, c in enumerate(coeffs)})
    total += LaurentPoly(extra)
    bottom = total.valuation()
    assert all((e - shift) % 2 == 0 for e, _ in total.items()), "extra terms of the wrong parity"
    coeffs = tuple(total.coefficient(c) for c in range(bottom, total.degree() + 1, 2))
    return (bottom - shift) // 2, coeffs


# the cached view itself: plant_kernel replaces the module attribute
_kernel_coefficients = fano_odd.kernel_coefficients


def _clear_odd_caches():
    _kernel_coefficients.cache_clear()
    fano_odd.multiplicity_kernel.cache_clear()
    fano_odd.fano_odd_diamond.cache_clear()


@pytest.fixture
def fresh_odd_caches():
    """Empty the odd caches around a test that corrupts a kernel, so no
    corrupted value outlives it."""
    _clear_odd_caches()
    yield
    _clear_odd_caches()


@pytest.fixture
def plant_kernel(monkeypatch, fresh_odd_caches):
    """install(j, extra) adds the centred-q terms `extra` (those of
    multiplicity_kernel) to the kernel of j = b in u = q^2, as
    fano_odd_blocks reads it through fano_odd.kernel_coefficients.  Each
    kernel is summed on its own, so the plant corrupts only the block of
    j."""
    kernel = fano_odd.kernel_coefficients

    def install(j, extra):
        def planted(a, b):
            if b != j:
                return kernel(a, b)
            return dense_plus(kernel(a, b), -(b - a + 1) * (2 * a - 1), extra)

        monkeypatch.setattr(fano_odd, "kernel_coefficients", planted)

    return install


@pytest.fixture
def gauss_sum_widths(monkeypatch):
    """The list of the digit widths exactpoly.gauss_sum picks, one per
    call, in call order, recorded while the test runs."""
    widths = []
    packed_width = exactpoly.packed_width

    def recorded(bound):
        widths.append(packed_width(bound))
        return widths[-1]

    monkeypatch.setattr(exactpoly, "packed_width", recorded)
    return widths


def _clear_package_caches():
    for info in pkgutil.iter_modules(twoquadrics.__path__):
        for value in vars(importlib.import_module(f"twoquadrics.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty every module-level functools cache of the package before and
    after a test that breaks gauss_sum's width proof on purpose, so no
    value summed at too narrow a width outlives it."""
    _clear_package_caches()
    yield
    _clear_package_caches()
