"""In-process tracing of the twoquadrics layers, from outside the library.

`traced(recorder)` replaces each function and method listed in LAYERS by
a wrapper that records a span (name, start, end, parent span, instance
id) and restores the originals on exit.  A function is replaced in every
`twoquadrics` module namespace that holds it, so calls through
`from .x import f` are seen too.  Spans stay in memory as columns of
integer nanoseconds and are written out after the measurement.

Self time is a span's duration minus the durations of its child spans.
Spans on one thread nest, so the children of a span are disjoint and lie
inside it, and integer nanoseconds keep every self time non-negative.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (metric prefix, module, attribute, stats).  A stat is one of
# calls, self_s, cache_hit_ratio, cells, bytes, p50_ms, p95_ms.
LAYERS = (
    ("exactpoly.gauss_coefficients", "exactpoly", "gauss_coefficients",
     ("calls", "self_s", "cache_hit_ratio")),
    ("exactpoly.exact_divide", "exactpoly", "exact_divide", ("calls", "self_s")),
    ("exactpoly.LaurentPoly.mul", "exactpoly", "LaurentPoly.__mul__", ("calls", "self_s")),
    ("exactpoly.BiPoly.mul", "exactpoly", "BiPoly.__mul__", ("calls", "self_s")),
    ("fano_odd.multiplicity_kernel", "fano_odd", "multiplicity_kernel",
     ("calls", "self_s", "cache_hit_ratio")),
    ("fano_odd.fano_odd_diamond", "fano_odd", "fano_odd_diamond",
     ("calls", "self_s", "cache_hit_ratio")),
    ("fano_even.fano_even_diamond", "fano_even", "fano_even_diamond", ("calls", "self_s")),
    ("fano_even.fano_even_betti", "fano_even", "fano_even_betti", ("calls", "self_s")),
    ("curves.sym_curve_diamond", "curves", "sym_curve_diamond",
     ("calls", "self_s", "cache_hit_ratio")),
    ("hodge.HodgeDiamond.init", "hodge", "HodgeDiamond.__init__", ("calls", "self_s", "cells")),
    ("hodge.HodgeDiamond.e_polynomial", "hodge", "HodgeDiamond.e_polynomial",
     ("calls", "self_s")),
    ("hodge.HodgeDiamond.euler", "hodge", "HodgeDiamond.euler", ("calls", "self_s")),
    ("hodge.HodgeDiamond.hochschild_polynomial", "hodge", "HodgeDiamond.hochschild_polynomial",
     ("self_s",)),
    ("motivic.multiplicity_polynomial", "motivic", "multiplicity_polynomial",
     ("calls", "self_s")),
    ("motivic.MotivicExpression.e_polynomial", "motivic", "MotivicExpression.e_polynomial",
     ("self_s",)),
    ("motivic.verify_decomposition", "motivic", "verify_decomposition", ("self_s",)),
    ("motivic.verify_k0_identity", "motivic", "verify_k0_identity", ("self_s",)),
    ("motivic.verify_bgmn_crosscheck", "motivic", "verify_bgmn_crosscheck", ("self_s",)),
    ("motivic.verify_hochschild", "motivic", "verify_hochschild", ("self_s",)),
    ("stacky.stacky_collection_length", "stacky", "stacky_collection_length", ("self_s",)),
    ("stacky.gessel_identity_check", "stacky", "gessel_identity_check", ("self_s",)),
    ("stacky.chu_vandermonde_check", "stacky", "chu_vandermonde_check", ("self_s",)),
    ("cli.run_sweep_task", "cli", "run_sweep_task", ("calls", "p50_ms", "p95_ms")),
    ("cli.stacky_counts_report", "cli", "stacky_counts_report", ("self_s",)),
    ("cli.report_to_json_obj", "cli", "report_to_json_obj", ("self_s",)),
    ("cli.canonical_json", "cli", "canonical_json", ("self_s", "bytes")),
    # the root span: argument parsing, output writing, everything unlisted
    ("cli.main", "cli", "main", ("self_s",)),
)

# spans that start a new instance id (one CLI call, one sweep task)
INSTANCE_ROOTS = {"cli.main", "cli.run_sweep_task"}

# extra per-span counts: metric prefix -> f(args, result)
COUNTERS = {
    "hodge.HodgeDiamond.init": lambda args, result: (args[0].dimension + 1) ** 2,
    "cli.canonical_json": lambda args, result: len(result.encode()),
}

UNITS = {
    "calls": "count", "self_s": "s", "cache_hit_ratio": "ratio",
    "cells": "count", "bytes": "B", "p50_ms": "ms", "p95_ms": "ms",
}

# whole-run figures reported next to the layers
RUN_METRICS = {
    "trace_overhead_ratio": "ratio",  # traced wall time / untraced wall time
    "trace.wall_s": "s",  # traced wall time of the pass
    "trace.self_coverage": "ratio",  # summed self time of all spans / traced wall
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{prefix}.{stat}": UNITS[stat] for prefix, _, _, stats in LAYERS for stat in stats}
    out.update(RUN_METRICS)
    return out


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "twoquadrics" or name.startswith("twoquadrics.")]


def cached_functions() -> list:
    """Every functools cache in the package, once each, also while
    wrapped by traced()."""
    seen = {}
    for module in package_modules():
        for value in vars(module).values():
            if not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


def clear_caches() -> None:
    for fn in cached_functions():
        fn.cache_clear()


class Recorder:
    """Spans of one traced pass, as parallel columns."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("q")
        self.instance_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.current = -1
        self.instance = -1
        self.next_instance = 0
        self.counts: dict[str, int] = {}
        self.cache_stats: dict[str, list[int]] = {}  # prefix -> [hits, misses]
        self._cached: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.start_col)

    def wrap(self, fn, prefix: str):
        if prefix in self.counts:
            raise ValueError(f"{prefix} is already traced by this recorder")
        nid = len(self.names)
        self.names.append(prefix)
        self.counts[prefix] = 0
        if hasattr(fn, "cache_info"):
            self._cached[prefix] = fn
            self.cache_stats[prefix] = [0, 0]
        counter = COUNTERS.get(prefix)
        new_instance = prefix in INSTANCE_ROOTS
        rec = self
        names, parents, instances = self.name_col, self.parent_col, self.instance_col
        starts, ends = self.start_col, self.end_col

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent, outer = rec.current, rec.instance
            if new_instance:
                rec.instance = rec.next_instance
                rec.next_instance += 1
            names.append(nid)
            parents.append(parent)
            instances.append(rec.instance)
            starts.append(0)
            ends.append(0)
            rec.current = idx
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                rec.current, rec.instance = parent, outer
            if counter is not None:
                rec.counts[prefix] += counter(args, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def collect_cache_stats(self) -> None:
        """Add the traced caches' hits and misses since their last clear;
        call before clearing them."""
        for prefix, fn in self._cached.items():
            info = fn.cache_info()
            stats = self.cache_stats[prefix]
            stats[0] += info.hits
            stats[1] += info.misses

    def self_times_ns(self) -> array:
        n = len(self)
        covered = array("q", bytes(8 * n))
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        return array("q", (ends[i] - starts[i] - covered[i] for i in range(n)))

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass, named as in metric_units()."""
        self_ns = self.self_times_ns()
        nnames = len(self.names)
        calls = [0] * nnames
        self_sum = [0] * nnames
        durations: list[list[int]] = [[] for _ in range(nnames)]
        timed = {nid for nid, prefix in enumerate(self.names) if "p50_ms" in _STATS[prefix]}
        for i, nid in enumerate(self.name_col):
            calls[nid] += 1
            self_sum[nid] += self_ns[i]
            if nid in timed:
                durations[nid].append(self.end_col[i] - self.start_col[i])
        out: dict[str, float] = {}
        for nid, prefix in enumerate(self.names):
            for stat in _STATS[prefix]:
                name = f"{prefix}.{stat}"
                if stat == "calls":
                    out[name] = calls[nid]
                elif stat == "self_s":
                    out[name] = self_sum[nid] / 1e9
                elif stat == "cache_hit_ratio":
                    hits, misses = self.cache_stats[prefix]
                    out[name] = hits / (hits + misses) if hits + misses else 0.0
                elif stat in ("cells", "bytes"):
                    out[name] = self.counts[prefix]
                elif stat in ("p50_ms", "p95_ms"):
                    out[name] = _percentile(durations[nid], 50 if stat == "p50_ms" else 95) / 1e6
        out["trace_overhead_ratio"] = traced_wall_s / untraced_wall_s
        out["trace.wall_s"] = traced_wall_s
        out["trace.self_coverage"] = sum(self_ns) / 1e9 / traced_wall_s
        return out

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [["name", "i"], ["parent", "q"], ["instance", "q"],
                        ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.parent_col, self.instance_col,
                        self.start_col, self.end_col):
                col.tofile(handle)


def load_spans(path) -> list[tuple[str, int, int, int, int]]:
    """Read a file written by Recorder.dump as (name, parent, instance,
    start_ns, end_ns) tuples."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["count"]
        cols = []
        for _, code in header["columns"]:
            col = array(code)
            col.fromfile(handle, n)
            cols.append(col)
    names = header["names"]
    return [(names[a], b, c, d, e) for a, b, c, d, e in zip(*cols)]


_STATS = {prefix: stats for prefix, _, _, stats in LAYERS}


def _percentile(values: list[int], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@contextmanager
def traced(recorder: Recorder):
    """Install wrappers for every LAYERS entry; restore on exit."""
    modules = package_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    patches = []
    try:
        for prefix, module_name, attr, _ in LAYERS:
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owners = [getattr(by_name[module_name], owner_name)]
                original = vars(owners[0])[member]
            else:
                owners = modules
                original = getattr(by_name[module_name], member)
            wrapper = recorder.wrap(original, prefix)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, name, value))
                        setattr(owner, name, wrapper)
        yield recorder
    finally:
        for owner, name, value in reversed(patches):
            setattr(owner, name, value)
