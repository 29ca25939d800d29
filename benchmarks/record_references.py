#!/usr/bin/env python3
"""Record the reference result digests in references.json.

    python3 benchmarks/record_references.py

Runs every call any workload can make (each sweep, and `verify odd` for
every (g, k) deep-verify can draw) through the library in this process,
requires each to pass the gate without digests, and stores the SHA-256
of its result bodies.  Re-record only when the report format changes on
purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from twoquadrics import cli  # noqa: E402


def digests_of(call: workloads.Call, out_path: Path) -> dict[str, str]:
    code = cli.main([*call.argv, "--output", str(out_path)])
    data = out_path.read_bytes()
    outcome = workloads.check_call(call, code, data, None)
    if outcome.failed:
        raise SystemExit(f"{' '.join(call.argv)}: {outcome.problems}")
    return workloads.result_digests(call, data)


def main() -> None:
    refs: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        out_path = Path(tmp) / "out.json"
        for name, params in workloads.SWEEPS.items():
            refs[name] = digests_of(workloads.sweep_call(params), out_path)
        refs["deep-verify"] = {}
        for g in workloads.DEEP_GENERA:
            for k in workloads.deep_k_choices(g):
                refs["deep-verify"].update(digests_of(workloads.verify_call(g, k), out_path))
    workloads.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
