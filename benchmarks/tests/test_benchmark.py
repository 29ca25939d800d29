"""Tests of the benchmark itself: metric names, the correctness gate and
the tracer.  Run with `python3 -m pytest benchmarks/tests`."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from twoquadrics import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SMALL = {"max_g": 6, "max_g_even": 6, "max_m": 2, "max_a": 4, "max_n": 3}


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    call = workloads.sweep_call(SMALL)
    path = tmp_path_factory.mktemp("sweep") / "out.json"
    assert cli.main([*call.argv, "--output", str(path)]) == 0
    data = path.read_bytes()
    return call, data, workloads.result_digests(call, data)


def test_declared_metrics_match_what_the_benchmark_emits():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    names += [w["name"] for w in config["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_clean_output_passes_the_gate(small_sweep):
    call, data, refs = small_sweep
    outcome = workloads.check_call(call, 0, data, refs)
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (len(call.expected), 0)
    assert outcome.instances == sum(call.expected.values())


def _doctored(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


def _report(doc, identity):
    return next(r for r in doc["reports"] if r["identity"] == identity)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["reports"][3].update(status="failed"),
    lambda doc: _report(doc, "hyperelliptic-decomposition")["lhs"][0].__setitem__(-1, "7"),
    lambda doc: doc["reports"].pop(),
    lambda doc: doc["reports"].append(doc["reports"][0]),
    lambda doc: _report(doc, "gessel-identity")["observations"].update(instances=1),
], ids=["status-flipped", "body-changed", "report-missing", "report-duplicated",
        "instance-count"])
def test_doctored_output_fails(small_sweep, edit):
    call, data, refs = small_sweep
    outcome = workloads.check_call(call, 0, _doctored(data, edit), refs)
    assert 0 < outcome.failed <= outcome.attempted
    assert outcome.failed / outcome.attempted > 0


def test_truncated_output_or_bad_exit_fails_every_report(small_sweep):
    call, data, refs = small_sweep
    for code, blob in ((0, data[: len(data) // 2]), (0, None), (1, data), (-9, None)):
        outcome = workloads.check_call(call, code, blob, refs)
        assert outcome.failed == outcome.attempted == len(call.expected)
        assert outcome.instances == 0


def test_deep_verify_matches_recorded_reference(tmp_path):
    call = workloads.verify_call(26, 12)
    path = tmp_path / "out.json"
    assert cli.main([*call.argv, "--output", str(path)]) == 0
    refs = workloads.load_references()["deep-verify"]
    data = path.read_bytes()
    assert workloads.check_call(call, 0, data, refs).failed == 0
    flipped = _doctored(data, lambda doc: doc.update(status="failed"))
    assert workloads.check_call(call, 0, flipped, refs).failed == 1


def test_deep_verify_draws_are_seeded_and_balanced():
    def draws(seed):
        schedule = workloads.passes("deep-verify", seed)
        return [[(int(c.argv[3]), int(c.argv[5])) for c in next(schedule)] for _ in range(6)]

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    first, second = draws(7)[:3], draws(7)[3:]
    assert first == second
    assert sorted(gk for calls in first for gk in calls) == sorted(
        (g, k) for g in workloads.DEEP_GENERA for k in workloads.deep_k_choices(g))


def _traced_small(monkeypatch, tmp_path, params):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    recorder = tracing.Recorder()
    wall, outcome = bench_run.in_process_pass([workloads.sweep_call(params)], None, recorder)
    assert outcome.failed == 0
    return recorder, wall


def test_self_times_are_non_negative_and_within_the_traced_wall(monkeypatch, tmp_path):
    original = cli.run_sweep_task
    recorder, wall = _traced_small(monkeypatch, tmp_path, SMALL)
    assert cli.run_sweep_task is original
    self_ns = recorder.self_times_ns()
    assert len(self_ns) == len(recorder) > 0
    assert min(self_ns) >= 0
    assert sum(self_ns) / 1e9 <= wall
    metrics = recorder.metrics(wall, wall)
    assert set(metrics) == set(tracing.metric_units())
    assert min(metrics.values()) >= 0
    assert metrics["cli.run_sweep_task.calls"] == len(workloads.expected_sweep_reports(SMALL))
    assert 0 < metrics["trace.self_coverage"] <= 1


def test_spans_round_trip_and_nest(monkeypatch, tmp_path):
    recorder, _ = _traced_small(monkeypatch, tmp_path, SMALL)
    recorder.dump(tmp_path / "t.spans")
    spans = tracing.load_spans(tmp_path / "t.spans")
    assert len(spans) == len(recorder)
    for i, (name, parent, instance, start, end) in enumerate(spans):
        assert start <= end
        if parent < 0:
            assert name == "cli.main"
        else:
            assert parent < i
            assert spans[parent][3] <= start and end <= spans[parent][4]
            if name != "cli.run_sweep_task":
                assert instance == spans[parent][2]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "odd-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
