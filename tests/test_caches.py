"""The package keeps a functools cache only where a value is read again,
or where the benchmark's tracer reads the cache's hit ratio; any other
cache only holds memory that grows with the sweep's genus."""

import importlib
import pkgutil

import twoquadrics

# module-relative names, each with the reason it is kept
ALLOWED = {
    # reused: one packed Pascal table per digit width, each entry read by
    # every later binomial of that width
    "exactpoly._pascal_table",
    # pinned: benchmarks/tracing.py LAYERS reads its cache_info()
    "exactpoly.gauss_coefficients",
    # reused: fano_odd_blocks reads each kernel for many (g, k)
    "fano_odd.kernel_coefficients",
    # pinned: benchmarks/tracing.py LAYERS reads its cache_info()
    "fano_odd.multiplicity_kernel",
    # pinned: benchmarks/tracing.py LAYERS reads its cache_info()
    "fano_odd.fano_odd_diamond",
    # pinned: benchmarks/tracing.py LAYERS reads its cache_info()
    "curves.sym_curve_diamond",
}


def package_caches():
    """Module-relative names of every functools cache defined in the
    package, at module level or in a class body."""
    found = set()
    for info in pkgutil.iter_modules(twoquadrics.__path__):
        module = importlib.import_module(f"twoquadrics.{info.name}")
        scopes = [("", vars(module))]
        scopes += [
            (f"{value.__name__}.", vars(value))
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for prefix, namespace in scopes:
            for name, value in namespace.items():
                if (
                    hasattr(value, "cache_info")
                    and hasattr(value, "cache_clear")
                    and value.__module__ == module.__name__
                ):
                    found.add(f"{info.name}.{prefix}{name}")
    return found


def test_caches_are_exactly_the_allowed_ones():
    assert package_caches() == ALLOWED
