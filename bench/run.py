"""channel-lab benchmark: one workload per call, or all three with ``--workload all``.

    python3 bench/run.py --workload sequence-sweep --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes (worker.py) with BLAS threads
and CHANNEL_LAB_THREADS pinned to 1.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  A full record, with the machine and provenance
block, goes to bench/results/.  Metric definitions are in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("sequence-sweep", "convert-batch", "gaussian-sweep")
#: Every process this script starts is killed once this many seconds have passed.
DEADLINE_S = 170.0
#: Set-up is timed in this many fresh set-up-only processes per run; setup_s is their median.
SETUP_SAMPLES = {"full": 7, "tiny": 1}

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CHANNEL_LAB_THREADS": "1",
}

#: (name, unit); all are "lower is better" except items_per_s.
END_TO_END = (
    ("setup_s", "s"),
    ("iter_s.p50", "s"),
    ("iter_s.tail", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)


def _span(name, unit, span, field):
    return (name, unit, lambda it: it.get(span, {}).get(field, 0))


def _term_calls_per_index(it) -> float:
    indices = it.get("sequences.convergence_report", {}).get("work", 0)
    return it.get("sequences.term", {}).get("calls", 0) / indices if indices else 0.0


def _limit_action_calls(it) -> int:
    return sum(it.get(s, {}).get("flagged", 0) for s in ("core.dual_action", "core.channel_action"))


#: Per-layer metrics of one traced iteration: (name, unit, value of an iteration's span totals).
PER_ITERATION = (
    _span("core.dual_action.calls", "count", "core.dual_action", "calls"),
    _span("core.dual_action.self_s", "s", "core.dual_action", "self_s"),
    _span("core.dual_action.kraus_products", "count", "core.dual_action", "work"),
    _span("core.channel_action.calls", "count", "core.channel_action", "calls"),
    _span("core.channel_action.self_s", "s", "core.channel_action", "self_s"),
    _span("core.channel_action.kraus_products", "count", "core.channel_action", "work"),
    _span("core.trace_norm.calls", "count", "core.trace_norm", "calls"),
    _span("core.trace_norm.self_s", "s", "core.trace_norm", "self_s"),
    _span("core.choi_matrix.calls", "count", "core.choi_matrix", "calls"),
    _span("core.choi_matrix.self_s", "s", "core.choi_matrix", "self_s"),
    _span("core.ordered_eigh.calls", "count", "core.ordered_eigh", "calls"),
    _span("core.ordered_eigh.self_s", "s", "core.ordered_eigh", "self_s"),
    _span("core.max_action_deviation.calls", "count", "core.max_action_deviation", "calls"),
    _span("core.max_action_deviation.s", "s", "core.max_action_deviation", "s"),
    _span("core.KrausChannel.init.calls", "count", "core.KrausChannel.init", "calls"),
    _span("core.KrausChannel.init.s", "s", "core.KrausChannel.init", "s"),
    _span("sequences.convergence_report.s", "s", "sequences.convergence_report", "s"),
    _span("sequences.term.calls", "count", "sequences.term", "calls"),
    _span("sequences.term.s", "s", "sequences.term", "s"),
    ("sequences.term_calls_per_index", "calls/index", _term_calls_per_index),
    ("sequences.limit_action_calls", "count", _limit_action_calls),
    _span("sequences.report_write.s", "s", "sequences.report_write", "s"),
    _span("dilation.minimal_stinespring.calls", "count", "dilation.minimal_stinespring", "calls"),
    _span("dilation.minimal_stinespring.s", "s", "dilation.minimal_stinespring", "s"),
    _span("dilation.unitary_from_isometry.s", "s", "dilation.unitary_from_isometry", "s"),
    _span("dilation.complete_unitary.s", "s", "dilation.complete_unitary", "s"),
    _span("dilation.tracked_complete_unitary.s", "s", "dilation.tracked_complete_unitary", "s"),
    _span("serialize.dump.s", "s", "serialize.dump", "s"),
    _span("serialize.load.s", "s", "serialize.load", "s"),
    _span("serialize.bytes_written", "B", "serialize.dump", "work"),
    _span("serialize.bytes_read", "B", "serialize.load", "work"),
    _span("cli.main.calls", "count", "cli.main", "calls"),
    _span("cli.main.self_s", "s", "cli.main", "self_s"),
    _span("gaussian.report_write.s", "s", "gaussian.report_write", "s"),
    _span("gaussian.param_convergence_check.s", "s", "gaussian.param_convergence_check", "s"),
    _span("gaussian.char_fn.calls", "count", "gaussian.char_fn", "calls"),
    _span("gaussian.char_fn.self_s", "s", "gaussian.char_fn", "self_s"),
    _span("gaussian.apply_gaussian.calls", "count", "gaussian.apply_gaussian", "calls"),
    _span("gaussian.apply_gaussian.s", "s", "gaussian.apply_gaussian", "s"),
    _span("gaussian.validate_state.calls", "count", "gaussian.validate_state", "calls"),
    _span("gaussian.validate_channel.calls", "count", "gaussian.validate_channel", "calls"),
    _span("ensembles.default_test_states.s", "s", "ensembles.default_test_states", "s"),
    _span("ensembles.matrix_unit_observables.s", "s", "ensembles.matrix_unit_observables", "s"),
    _span("parallel.pmap.calls", "count", "parallel.pmap", "calls"),
    _span("parallel.pmap.self_s", "s", "parallel.pmap", "self_s"),
)

#: Per-layer metrics measured once per traced run.
PER_RUN = (
    ("trace.overhead_ratio", "ratio"),
    ("sequences.compress_growth_exponent", "exponent"),
    ("dilation.minimal_stinespring_growth_exponent", "exponent"),
)

PER_LAYER = tuple((n, u) for n, u, _ in PER_ITERATION) + PER_RUN


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def tail(times: list) -> tuple[float, float, int]:
    """Highest order statistic with at least 10 samples above it.

    Returns (value, its percentile, samples above).  With 10 or fewer
    samples no such statistic exists and the maximum is returned with the
    count of samples above it, 0.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def source_identity(root: str) -> dict:
    """The checkout's git commit when it is a repository, and a digest of the library source."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "channel_lab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, argv: list, deadline: float):
        env = dict(os.environ, **PINNED_ENV)
        env.pop("PYTHONPATH", None)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from process start until the worker reported ready."""
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.started
        if line.strip() != "ready":
            self.finish()
            raise BenchmarkError(f"worker failed during set-up (exit code {self.proc.returncode})")
        return elapsed

    def finish(self) -> None:
        self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"worker exited with code {self.proc.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run one workload and return its full record (metrics, provenance, details)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "channel_lab", "__init__.py")):
        raise BenchmarkError(f"no channel_lab source under {ROOT}/src")
    deadline = time.monotonic() + DEADLINE_S
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{name}-seed{seed}-trace{trace}")
    argv = ["--root", ROOT, "--workload", name, "--seed", str(seed), "--size", size]

    setup, setup_scaled = [], []
    calibrate.warm_up()
    for _ in range(0 if trace else SETUP_SAMPLES[size]):
        before = calibrate.measure()
        w = Worker(argv + ["--setup-only"], deadline)
        setup.append(w.wait_ready())
        w.finish()
        setup_scaled.append(calibrate.scaled(setup[-1], before, calibrate.measure()))
    w = Worker(argv + ["--seconds", str(seconds), "--trace", str(trace),
                       "--result", stem + ".worker.json", "--spans", stem + ".spans.npz"], deadline)
    w.wait_ready()
    w.finish()
    with open(stem + ".worker.json") as fh:
        raw = json.load(fh)
    os.remove(stem + ".worker.json")

    runs = [raw["untraced"]] + ([raw["traced"]] if trace else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "provenance": dict(raw["provenance"], **source_identity(ROOT), seed=seed),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": [e for r in runs for e in r["errors"]][:3],
    }
    times = raw["untraced"]["scaled"]
    if trace:
        its = list(raw["layers"].values())
        metrics = {n: statistics.median([f(it) for it in its]) for n, _, f in PER_ITERATION}
        metrics["trace.overhead_ratio"] = raw["overhead_ratio"]
        for key in ("sequences.compress_growth_exponent", "dilation.minimal_stinespring_growth_exponent"):
            metrics[key] = raw["growth"][key]
        units = dict(PER_LAYER)
        record.update(per_command=raw["per_command"], growth=raw["growth"], spans=raw["spans"],
                      traced_iter_s=raw["traced"]["times"])
    else:
        tail_s, tail_pct, above = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "iter_s.p50": statistics.median(times),
            "iter_s.tail": tail_s,
            "items_per_s": raw["untraced"]["items"] / sum(times),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        wall = raw["untraced"]["times"]
        record.update(
            tail={"percentile": tail_pct, "samples_above": above},
            setup_samples_s={"scaled": setup_scaled, "wall": setup},
            wall={
                "setup_s": statistics.median(setup),
                "iter_s.p50": statistics.median(wall),
                "iter_s.tail": tail(wall)[0],
                "items_per_s": raw["untraced"]["items"] / sum(wall),
            },
        )
    record["iter_s"] = {"scaled": times, "wall": raw["untraced"]["times"]}
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary_lines(record: dict) -> list:
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"]
    for key, m in record["metrics"].items():
        lines.append(f"  {key:48s} {m['value']!r:>24} {m['unit']}")
    if "tail" in record:
        t = record["tail"]
        lines.append(f"  iter_s.tail is p{t['percentile']:.1f} of {len(record['iter_s']['wall'])} "
                     f"iterations ({t['samples_above']} above it)")
        lines.append(f"  times above are scaled to a machine that runs the calibration kernel in "
                     f"{calibrate.NOMINAL_S} s; unscaled wall times:")
        for key, value in record["wall"].items():
            lines.append(f"    wall {key:43s} {value!r:>24} {dict(END_TO_END)[key]}")
    lines.append(f"  {'fail_ratio':48s} {record['fail_ratio']!r:>24} ratio "
                 f"({record['failed']} of {record['attempted']} iterations)")
    for err in record["errors"]:
        lines.append("  error: " + err.strip().replace("\n", "\n  "))
    lines.append("  provenance " + json.dumps(record["provenance"], sort_keys=True))
    return lines


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the channel-lab benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem sizes; 'tiny' exists for the harness smoke test")
    args = p.parse_args(argv)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, args.size) for n in names]
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print("\n".join(summary_lines(record)))
    if len(records) == 1:
        final = result_line(records[0])
    else:
        final = {
            "correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {r["workload"]: r["metrics"] for r in records},
        }
    bad = [k for r in records for k, m in r["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"benchmark failed: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
