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


def dense_plus(kernel, extra):
    """The kernel (low, coeffs) in u = L plus the terms `extra` (exponent
    of u -> coefficient), again as (low, coeffs) with nonzero ends, the
    contract of gauss_sum."""
    low, coeffs = kernel
    total = LaurentPoly({low + e: c for e, c in enumerate(coeffs)}) + LaurentPoly(extra)
    bottom = total.valuation()
    return bottom, tuple(total.coefficient(e) for e in range(bottom, total.degree() + 1))


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
    """install(j, extra) adds the terms `extra` (exponent of u = L ->
    coefficient) to the kernel of j = b, as fano_odd_blocks reads it
    through fano_odd.kernel_coefficients.  Each kernel is summed on its
    own, so the plant corrupts only the block of j."""
    kernel = fano_odd.kernel_coefficients

    def install(j, extra):
        def planted(a, b):
            return dense_plus(kernel(a, b), extra) if b == j else kernel(a, b)

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
