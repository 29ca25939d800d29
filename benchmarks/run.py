#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `twoquadrics` CLI.

    python3 benchmarks/run.py --workload odd-sweep --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/` and nowhere else.

--trace 0 (end to end): the workload's CLI calls run in fresh processes,
one at a time (a closed loop with one client), every cache cold.  Passes
repeat while the next one still fits in --seconds; every metric is the
median over passes.  `setup_s` is the median time of fresh interpreters
that import `twoquadrics.cli` and build its parser.

--trace 1 (per layer): the same calls run in this process through
`cli.main`, caches cleared before each call, first untraced and then
with every layer in tracing.LAYERS wrapped.  Spans of the last traced
pass go to `.bench_out/trace-<workload>.spans`.

Every output is checked (see workloads.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# sibling modules; the script's directory is on sys.path
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
CALL_TIMEOUT_S = 150
SETUP_CODE = "import twoquadrics.cli as cli; cli.build_parser()"

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "B",
}


class BenchError(Exception):
    """The benchmark cannot run here (no library source, wrong import)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Run `python3 <args>` to completion; return (wall s, peak RSS MB,
    exit code).  RSS comes from wait4 on the child only.  A call over CALL_TIMEOUT_S is killed with its
    process group and reported as exit code -9."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=child_env(), cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def check_source() -> None:
    if not (SRC / "twoquadrics" / "cli.py").is_file():
        raise BenchError(f"no library source at {SRC / 'twoquadrics'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import twoquadrics.cli as cli; print(cli.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    found = Path(probe.stdout.strip() or "-").resolve()
    if probe.returncode != 0 or SRC not in found.parents:
        raise BenchError(f"twoquadrics.cli did not import from {SRC}: {probe.stderr.strip()}")


def measure_setup(samples: int) -> float:
    walls = [run_child(["-c", SETUP_CODE], OUT / "setup.stderr")[0] for _ in range(samples)]
    return statistics.median(walls)


def end_to_end_pass(calls, refs) -> tuple[dict, workloads.Outcome]:
    totals = workloads.Outcome()
    wall = rss = 0.0
    nbytes = 0
    for i, call in enumerate(calls):
        out_path = OUT / f"call{i}.json"
        out_path.unlink(missing_ok=True)
        argv = ["-m", "twoquadrics.cli", *call.argv, "--output", str(out_path)]
        seconds, peak, code = run_child(argv, OUT / f"call{i}.stderr")
        data = out_path.read_bytes() if out_path.exists() else None
        wall += seconds
        rss = max(rss, peak)
        nbytes += len(data or b"")
        totals.add(workloads.check_call(call, code, data, refs))
        out_path.unlink(missing_ok=True)
    figures = {
        "wall_s": wall,
        "instances_per_s": totals.instances / wall,
        "peak_rss_mb": rss,
        "output_bytes": nbytes,
    }
    return figures, totals


def in_process_pass(calls, refs, recorder=None) -> tuple[float, workloads.Outcome]:
    """Run the calls through cli.main in this process, traced when a
    recorder is given; return their summed wall time and the outcome."""
    from twoquadrics import cli

    totals = workloads.Outcome()
    wall = 0.0
    with tracing.traced(recorder) if recorder is not None else contextlib.nullcontext():
        for i, call in enumerate(calls):
            out_path = OUT / f"call{i}.json"
            out_path.unlink(missing_ok=True)
            tracing.clear_caches()
            t0 = time.perf_counter()
            code = cli.main([*call.argv, "--output", str(out_path)])
            wall += time.perf_counter() - t0
            if recorder is not None:
                recorder.collect_cache_stats()
            data = out_path.read_bytes() if out_path.exists() else None
            totals.add(workloads.check_call(call, code, data, refs))
            out_path.unlink(missing_ok=True)
    return wall, totals


def traced_pass(calls, refs, spans_path: Path) -> tuple[dict, workloads.Outcome]:
    untraced_wall, totals = in_process_pass(calls, refs)
    recorder = tracing.Recorder()
    traced_wall, traced_totals = in_process_pass(calls, refs, recorder)
    totals.add(traced_totals)
    figures = recorder.metrics(traced_wall, untraced_wall)
    recorder.dump(spans_path)
    return figures, totals


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check_source()
    OUT.mkdir(exist_ok=True)
    refs = workloads.load_references()[workload]
    if workload == "deep-verify":
        print(f"seed {seed}: orders the k values drawn for each g in {workloads.DEEP_GENERA}")
    else:
        print(f"seed {seed}: ignored by {workload} (its sweep ranges are fixed)")

    if trace:
        sys.path.insert(0, str(SRC))
        import twoquadrics

        if SRC not in Path(twoquadrics.__file__).resolve().parents:
            raise BenchError(f"twoquadrics imported from {twoquadrics.__file__}, not {SRC}")
        spans_path = OUT / f"trace-{workload}.spans"
        step = lambda calls: traced_pass(calls, refs, spans_path)  # noqa: E731
    else:
        setup_s = measure_setup(SETUP_SAMPLES)
        step = lambda calls: end_to_end_pass(calls, refs)  # noqa: E731

    totals = workloads.Outcome()
    samples: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    for calls in workloads.passes(workload, seed):
        t0 = time.perf_counter()
        figures, outcome = step(calls)
        durations.append(time.perf_counter() - t0)
        samples.append(figures)
        totals.add(outcome)
        drawn = " ".join(f"g={c.argv[3]},k={c.argv[5]}" for c in calls if c.argv[0] == "verify")
        wall = figures.get("wall_s", figures.get("trace.wall_s"))
        print(f"pass {len(samples)}: {drawn or 'sweep'} {wall:.3f} s")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    if trace:
        units = tracing.metric_units()
    else:
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    for problem in totals.problems[:20]:
        print(f"FAILED: {problem}")
    failed_fraction = totals.failed / totals.attempted
    print(f"{workload}: {len(samples)} passes, {totals.attempted} operations, "
          f"failed_fraction {failed_fraction:.6g}"
          + ("" if trace else f", setup_s over {SETUP_SAMPLES} interpreters"))
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    return {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
