"""Calibration kernel that cancels drift in machine speed.

The machine this benchmark targets is shared: the speed of its cores
drifts by up to 1.8x over minutes, and the drift moves every timing
together.  So a fixed kernel, which never calls channel_lab, is timed
next to each measurement.  A measured time t is reported as
``t * NOMINAL_S / k``, where k is the mean of the kernel times just
before and just after it.  This gives seconds on a machine that runs the
kernel in NOMINAL_S.  The kernel mixes the kinds of work the workloads do:
small numpy products in a Python loop, scalar numpy calls, a LAPACK
eigensolver and the pure-Python JSON encoder.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Kernel time, in seconds, of the nominal machine that scaled times refer to.
NOMINAL_S = 0.05

_A = np.full((8, 8), 0.1 + 0.05j) + np.eye(8)
_H = np.random.default_rng(0).standard_normal((96, 96))
_H = _H + _H.T
_DOC = {"m": np.random.default_rng(1).standard_normal((40, 40, 2)).tolist()}


def kernel() -> float:
    acc = 0.0
    for k in range(3000):
        b = _A.conj().T @ _A @ _A
        acc += float(np.abs(b).max())
        acc += abs(complex(np.exp(1j * (0.3 * k) - 0.5e-3 * k)))
    for _ in range(6):
        acc += float(np.linalg.eigh(_H)[0][0])
    for _ in range(2):
        acc += len(json.dumps(_DOC, indent=2))
    return acc


def warm_up() -> None:
    """Run the kernel once untimed; a process's first run pays one-time costs."""
    kernel()


def measure() -> float:
    """Seconds one run of the kernel takes now; call ``warm_up`` first."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at nominal machine speed, given kernel times around it."""
    return seconds * NOMINAL_S / ((before + after) / 2)
