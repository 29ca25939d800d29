"""Workload definitions and the correctness gate of the benchmark.

A workload is a list of `twoquadrics` CLI calls that make up one pass.
The gate reads what each call wrote and counts failed operations: an
operation is one report the call must emit.  A report fails when it is
missing, duplicated or unexpected, when its status is not `verified`,
when its instance count differs from what the call's ranges imply, or
when its result body (the report without `elapsed_ms`) does not hash to
the reference recorded in `references.json`.  A nonzero exit code or an
unreadable output fails every report the call owed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Sweep ranges.  odd-sweep runs the hyperelliptic path and barely touches
# the stacky one; stacky-sweep is the reverse, and also runs the identity
# suites at their CLI defaults.  Both are serial: a --jobs 2 sweep spread
# too much from run to run on a 2-core machine to hold a bound.
SWEEPS = {
    "odd-sweep": {"max_g": 20, "max_g_even": 2, "max_m": 0, "max_a": 0, "max_n": 0},
    "stacky-sweep": {"max_g": 2, "max_g_even": 30, "max_m": 30, "max_a": 60, "max_n": 40},
}

# deep-verify: one cold `verify odd` per genus, k drawn around (g-2)/2,
# where the multiplicity kernel dominates a single call.
DEEP_GENERA = (26, 28, 30, 32, 34)

WORKLOADS = ("odd-sweep", "stacky-sweep", "deep-verify")


@dataclass
class Call:
    """One CLI invocation; `argv` excludes `--output FILE`."""

    argv: tuple[str, ...]
    expected: dict[str, int]  # report key -> identity instances it stands for
    ref_group: str  # key into the workload's reference digests ("" for sweeps)


@dataclass
class Outcome:
    """Operations attempted and failed, and identity instances verified."""

    attempted: int = 0
    failed: int = 0
    instances: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.instances += other.instances
        self.problems.extend(other.problems)


def deep_k_choices(g: int) -> tuple[int, int, int]:
    mid = (g - 2) // 2
    return (mid - 1, mid, mid + 1)


def report_key(identity: str, params: dict) -> str:
    return identity + " " + ",".join(f"{k}={params[k]}" for k in sorted(params))


def expected_sweep_reports(p: dict) -> dict[str, int]:
    """Every report a sweep over the ranges in `p` must emit, with the
    number of identity instances it stands for."""
    out: dict[str, int] = {}
    for g in range(2, p["max_g"] + 1):
        out[report_key("k0-identity", {"g": g})] = 1
        out[report_key("bgmn-crosscheck", {"g": g})] = 1
        for k in range(g - 1):
            out[report_key("hyperelliptic-decomposition", {"g": g, "k": k})] = 1
            out[report_key("hochschild-decomposition", {"g": g, "k": k})] = 1
    for g in range(2, p["max_g_even"] + 1):
        for k in range(g - 1):
            out[report_key("stacky-counts", {"g": g, "k": k})] = 1
    m, a, n = p["max_m"], p["max_a"], p["max_n"]
    out[report_key("gessel-identity", {"max_a": a, "max_m": m})] = (m + 1) * (a // 2 + 1)
    # one instance per triple 0 <= j <= k <= n' <= n
    out[report_key("chu-vandermonde", {"max_n": n})] = sum(
        (t + 1) * (t + 2) // 2 for t in range(n + 1)
    )
    return out


def sweep_call(p: dict) -> Call:
    argv = (
        "sweep",
        "--max-g", str(p["max_g"]), "--max-g-even", str(p["max_g_even"]),
        "--max-m", str(p["max_m"]), "--max-a", str(p["max_a"]), "--max-n", str(p["max_n"]),
        "--format", "json",
    )
    return Call(argv, expected_sweep_reports(p), "")


def verify_call(g: int, k: int) -> Call:
    argv = ("verify", "odd", "--g", str(g), "--k", str(k), "--format", "json")
    return Call(argv, {report_key("hyperelliptic-decomposition", {"g": g, "k": k}): 1}, f"{g},{k}")


def passes(workload: str, seed: int) -> Iterator[list[Call]]:
    """The CLI calls of each pass, endlessly.  Only deep-verify uses the
    seed: it draws an order of the three k values for each g, and pass i
    takes the (i mod 3)-th, so every three passes run each (g, k) once
    and the seed changes which calls share a pass, not the total work."""
    if workload != "deep-verify":
        call = sweep_call(SWEEPS[workload])
        while True:
            yield [call]
    rng = random.Random(seed)
    orders = {g: rng.sample(deep_k_choices(g), 3) for g in DEEP_GENERA}
    for i in itertools.count():
        yield [verify_call(g, orders[g][i % 3]) for g in DEEP_GENERA]


def body_digest(reports: list[dict]) -> str:
    """SHA-256 of the canonical result bodies, `elapsed_ms` dropped."""
    bodies = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]
    blob = json.dumps(bodies, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_groups(call: Call, reports: dict[str, dict]) -> dict[str, list[str]]:
    """Reference-digest group name -> report keys hashed together: one
    group per identity for a sweep, the single report for a verify."""
    if call.ref_group:
        return {call.ref_group: sorted(reports)}
    groups: dict[str, list[str]] = {}
    for key in sorted(reports):
        groups.setdefault(key.split(" ", 1)[0], []).append(key)
    return groups


def result_digests(call: Call, data: bytes) -> dict[str, str]:
    """Reference digests of a call's output, by digest group."""
    reports = {report_key(r["identity"], r["params"]): r for r in _reports_of(json.loads(data))}
    return {group: body_digest([reports[k] for k in keys])
            for group, keys in digest_groups(call, reports).items()}


def _reports_of(doc) -> list:
    if isinstance(doc, dict) and isinstance(doc.get("reports"), list):
        return doc["reports"]
    return [doc]


def check_call(call: Call, exit_code: int, data: bytes | None, refs: dict | None) -> Outcome:
    """Correctness gate for one call.  `refs` maps digest group to SHA-256;
    None skips the digest comparison (used only to record references)."""
    expected = call.expected
    attempted = len(expected)
    if exit_code != 0:
        return Outcome(attempted, attempted, 0, [f"{call.argv[0]} exited with {exit_code}"])
    try:
        doc = json.loads(data)
    except (TypeError, ValueError) as exc:
        return Outcome(attempted, attempted, 0, [f"unreadable output: {exc}"])
    bad: set[str] = set()
    problems: list[str] = []
    seen: dict[str, dict] = {}
    extra = 0
    try:
        for r in _reports_of(doc):
            key = report_key(r["identity"], r["params"])
            if key not in expected or key in seen:
                extra += 1
                problems.append(f"unexpected report {key}")
                continue
            seen[key] = r
            if r["status"] != "verified":
                bad.add(key)
                problems.append(f"{key}: status {r['status']}")
            got = r["observations"].get("instances", 1)
            if got != expected[key]:
                bad.add(key)
                problems.append(f"{key}: {got} instances, expected {expected[key]}")
    except (KeyError, TypeError, AttributeError) as exc:
        return Outcome(attempted, attempted, 0, [f"malformed report: {exc!r}"])
    for key in expected.keys() - seen.keys():
        bad.add(key)
        problems.append(f"{key}: missing")
    if isinstance(doc, dict) and "summary" in doc:
        want = {"failed": 0, "total": attempted, "verified": attempted}
        if doc["summary"] != want:
            problems.append(f"summary {doc['summary']} != {want}")
            extra = max(extra, 1)
    if refs is not None:
        for group, keys in digest_groups(call, seen).items():
            if refs.get(group) != body_digest([seen[k] for k in keys]):
                bad.update(keys)
                problems.append(f"{group}: result digest differs from the reference")
    failed = min(attempted, len(bad) + extra)
    instances = sum(n for key, n in expected.items() if key in seen and key not in bad)
    return Outcome(attempted, failed, instances, problems)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
