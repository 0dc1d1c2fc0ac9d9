"""One workload in a fresh process: set up, run the closed loop, report.

Started by run.py with BLAS threads and CHANNEL_LAB_THREADS pinned to 1.
Prints ``ready`` once channel_lab is imported and the first inputs exist,
so the parent can time set-up from process start; ``--setup-only`` stops
there.  The loop result goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import calibrate
import tracing
import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root holding src/channel_lab")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", help="where to write the loop result")
    p.add_argument("--spans", help="where to write the traced run's spans (.npz)")
    return p.parse_args(argv)


def import_channel_lab(root: str):
    """Import channel_lab from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import channel_lab
    import channel_lab.cli  # noqa: F401  (binds cli, serialize, ensembles on the package)

    where = os.path.realpath(channel_lab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"channel_lab imported from {where}, not from {src}")
    return channel_lab


#: The traced run stops after this many iterations: per-layer metrics are
#: per-iteration medians, and a gaussian-sweep iteration records 150,000 spans.
TRACED_ITERATIONS = 5


def loop(workload, seconds: float, first: int, inputs, tracer=None, max_iterations=None) -> dict:
    """Closed loop: iteration i+1 starts when iteration i and its oracle are done.

    Runs at least one iteration and stops once ``seconds`` of wall time
    have passed or ``max_iterations`` iterations are done.  Each timed
    iteration sits between two runs of the calibration kernel; ``times``
    are wall times and ``scaled`` the same times at nominal machine speed.
    """
    times, scaled, errors = [], [], []
    failed = items = 0
    i = first
    began = time.perf_counter()
    calibrate.warm_up()
    kernel_before = calibrate.measure()
    while True:
        if inputs is None:
            inputs = workload.prepare(i)
        if tracer is not None:
            tracer.iteration = i
        t0 = time.perf_counter()
        try:
            result = workload.run(inputs)
            ok = True
        except Exception:  # an iteration that raises counts as failed; keep going
            ok = False
            errors.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.iteration = -1
        kernel_after = calibrate.measure()
        scaled.append(calibrate.scaled(times[-1], kernel_before, kernel_after))
        kernel_before = kernel_after
        if ok:
            try:
                items += workload.check(inputs, result)
            except Exception:  # oracle disagreement or unreadable output
                ok = False
                errors.append(traceback.format_exc(limit=3))
        failed += not ok
        i += 1
        inputs = None
        if time.perf_counter() - began >= seconds or len(times) == max_iterations:
            break
    return {"times": times, "scaled": scaled, "attempted": len(times), "failed": failed,
            "items": items, "next": i, "errors": errors[:3]}


def provenance(lab) -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "channel_lab_threads": os.environ.get(lab._parallel.THREADS_ENV),
        "channel_lab_thread_cap": lab._parallel.thread_cap(),
        "channel_lab_version": lab.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    lab = import_channel_lab(args.root)
    work_root = os.path.join(args.root, "bench", "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        size = workloads.SIZES[args.size]
        workload = workloads.WORKLOADS[args.workload](lab, args.seed, workdir, size)
        first_inputs = workload.prepare(0)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        tracing.assert_untraced()
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = loop(workload, untraced_seconds, 0, first_inputs)
        out = {
            "provenance": provenance(lab),
            "untraced": untraced,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = loop(workload, args.seconds / 2, untraced["next"], None, tracer,
                              TRACED_ITERATIONS)
            finally:
                tracer.uninstall()
            out["traced"] = traced
            out["layers"] = tracer.per_iteration()
            out["per_command"] = tracer.per_command()
            out["spans"] = len(tracer)
            out["overhead_ratio"] = statistics.median(traced["scaled"]) / statistics.median(untraced["scaled"])
            out["growth"] = workloads.growth_probes(lab, workdir, size)
            if args.spans:
                tracer.write(args.spans)
        with open(args.result, "w") as fh:
            json.dump(out, fh)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
