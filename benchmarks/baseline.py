#!/usr/bin/env python3
"""Record a baseline: every workload under several seeds, plus one traced run.

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/BENCH_seed.json

Runs `run.py` in fresh processes, seeds 1..runs, cycling through the
workloads within each seed so that slow drift of the machine touches all
of them alike.  For each end-to-end metric it records the values, their
median and quartiles (statistics.quantiles, n=4) and the spread, the
inter-quartile distance as a share of the median, next to the bound from
BENCHMARK.json.  A metric is steady when its spread is below a third of
its bound; setup_s is exempt, as its bound covers only the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import SETUP_SAMPLES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, int]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    passes = int(re.search(r": (\d+) passes", proc.stdout).group(1))
    return json.loads(lines[-1]), passes


def summarize(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    out = {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values)}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out["spread"] < bound / 3
    return out


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {w: {"runs": [], "passes": []} for w in names}
    for seed in seeds:
        for w in names:
            result, passes = run_once(w, seed, seconds, 0)
            results[w]["runs"].append(result)
            results[w]["passes"].append(passes)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "setup_samples_per_run": SETUP_SAMPLES,
        "seeds": seeds,
        "workloads": {},
    }
    for w in names:
        runs = results[w]["runs"]
        entry = {
            "passes_per_run": results[w]["passes"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"],
                                         **summarize(values, bounds.get(name))}
        if not args.no_trace:
            traced, passes = run_once(w, seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], "passes": passes,
                                  "failed": traced["failed"], "metrics": traced["metrics"]}
        record["workloads"][w] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s.get("steady", True) or name == "setup_s" else "  NOT STEADY"
            print(f"{w:15s} {name:16s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {s.get('bound')}{flag}")
        print(f"{w:15s} failed {entry['failed']}/{entry['attempted']}")
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
