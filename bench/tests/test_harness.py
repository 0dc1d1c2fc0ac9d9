"""Fast checks of the benchmark harness itself (not part of the library's test suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_benchmark_json_names_what_the_harness_reports():
    doc = bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _, u in run.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_tiny_and_reports_every_metric(trace):
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"] for m in bench_json()[section]}
    for name in run.WORKLOAD_NAMES:
        assert set(final["metrics"][name]) == names
        with open(os.path.join(BENCH, "results", f"{name}-seed5-trace{trace}.json")) as fh:
            record = json.load(fh)
        assert record["fail_ratio"] == 0
        assert record["provenance"]["channel_lab_threads"] == "1"
    assert "fail_ratio" in proc.stdout


def test_traced_counts_match_the_code(tmp_path):
    """One full-size sequence-sweep iteration under the tracer reproduces the known call counts."""
    import channel_lab
    import channel_lab.cli  # noqa: F401

    wl = workloads.SequenceSweep(channel_lab, 3, str(tmp_path), workloads.SIZES["full"])
    inputs = wl.prepare(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.iteration = 0
        wl.run(inputs)
        tracer.iteration = -1
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    assert wl.check(inputs, None) == 70

    compress = tracer.per_command()["sequence compress"]
    assert compress["core.dual_action"] == {"calls": 2000, "work": 47000}
    assert compress["core.channel_action"]["calls"] == 280
    assert compress["core.trace_norm"]["calls"] == 150
    assert compress["core.choi_matrix"]["calls"] == 20
    assert compress["sequences.term"]["calls"] == 30
    form = tracer.per_command()["sequence partial-trace-form"]
    assert form["sequences.term"]["calls"] == 180
    (it,) = tracer.per_iteration().values()
    metrics = {name: f(it) for name, _, f in run.PER_ITERATION}
    assert metrics["sequences.term_calls_per_index"] == 3.0


def test_oracle_rejects_a_perturbed_report(tmp_path):
    import channel_lab
    import channel_lab.cli  # noqa: F401

    wl = workloads.SequenceSweep(channel_lab, 3, str(tmp_path), workloads.SIZES["tiny"])
    inputs = wl.prepare(0)
    wl.run(inputs)
    wl.check(inputs, None)
    path = wl.path("compress.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["strong"][0] += 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(oracles.OracleError):
        wl.check(inputs, None)


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = run_bench("--workload", "gaussian-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
