"""Bosonic Gaussian states and channels at the parameter level.

Everything here lives on mean vectors, covariance matrices, and channel
parameter triples; no Fock-space matrices are built.  Conventions:

* Phase space for s modes is R^(2s) with symplectic form
  ``Delta = I_s (x) [[0, 1], [-1, 0]]``.
* A state is (m, sigma) with characteristic function
  ``phi(z) = exp(i m.z - z.sigma.z / 2)``; validity is
  ``sigma + i Delta >= 0`` (equivalently with -i), so the vacuum has
  ``sigma = I``.
* A channel is (scale K, shift l, noise alpha) acting on states as
  ``m -> m K + l`` and ``sigma -> alpha + K^T sigma K``; on the dual side a
  plane-wave symbol at z maps to the symbol at ``K z`` times
  ``exp(i l.z - z.alpha.z / 2)``.  Validity is
  ``alpha +/- (i/2)(Delta_out - K^T Delta_in K) >= 0``.
* A coherent state of amplitude ``a`` is the displaced vacuum with mean
  ``(2 Re a, 2 Im a)``; this is the scaling that reproduces the squared
  overlap ``exp(-|a - b|^2)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._parallel import pmap
from .core import ValidationError

#: Symmetry tolerance for covariance and noise matrices.
TOL_SYM = 1e-12
#: How far below zero a validity eigenvalue may slip.
TOL_PSD = 1e-10

SCHEMA_VERSION = 1


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for the given number of modes."""
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _real_matrix(m, what: str) -> np.ndarray:
    a = np.array(m, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of a Gaussian state.

    Construction checks shapes, realness, and symmetry of the covariance;
    the uncertainty condition ``sigma + i Delta >= 0`` is deliberately left
    to :func:`validate_state`, so that invalid parameter sets can be built
    and diagnosed.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = _real_matrix(self.mean, "mean vector")
        c = _real_matrix(self.cov, "covariance")
        if m.ndim != 1 or len(m) < 2 or len(m) % 2:
            raise ValidationError(f"mean vector must have even length >= 2, got shape {m.shape}")
        if c.shape != (len(m), len(m)):
            raise ValidationError(f"covariance of shape {c.shape} does not match mean length {len(m)}")
        if np.max(np.abs(c - c.T)) > TOL_SYM:
            raise ValidationError("covariance is not symmetric")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    @property
    def modes(self) -> int:
        return len(self.mean) // 2


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Parameter triple (scale, shift, noise) of a Gaussian channel.

    ``scale`` is the real 2s_in x 2s_out matrix pulling output phase-space
    arguments back to the input, ``shift`` displaces the output mean, and
    ``noise`` is the added symmetric noise.  The complete-positivity
    condition is left to :func:`validate_channel`.
    """

    scale: np.ndarray
    shift: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        k = _real_matrix(self.scale, "scale matrix")
        l = _real_matrix(self.shift, "shift vector")
        a = _real_matrix(self.noise, "noise matrix")
        if k.ndim != 2 or k.shape[0] < 2 or k.shape[1] < 2 or k.shape[0] % 2 or k.shape[1] % 2:
            raise ValidationError(f"scale matrix must be 2s_in x 2s_out, got shape {k.shape}")
        if l.shape != (k.shape[1],):
            raise ValidationError(f"shift of shape {l.shape} does not match output dim {k.shape[1]}")
        if a.shape != (k.shape[1], k.shape[1]):
            raise ValidationError(f"noise of shape {a.shape} does not match output dim {k.shape[1]}")
        if np.max(np.abs(a - a.T)) > TOL_SYM:
            raise ValidationError("noise matrix is not symmetric")
        object.__setattr__(self, "scale", k)
        object.__setattr__(self, "shift", l)
        object.__setattr__(self, "noise", a)

    @property
    def modes_in(self) -> int:
        return self.scale.shape[0] // 2

    @property
    def modes_out(self) -> int:
        return self.scale.shape[1] // 2


@dataclass(frozen=True)
class PsdCheck:
    """Result of a positivity check, with the offending eigenvalues."""

    ok: bool
    min_eig_plus: float
    min_eig_minus: float

    def __bool__(self) -> bool:
        return self.ok


def validate_state(st: GaussianState, tol: float = TOL_PSD) -> PsdCheck:
    """Check the uncertainty condition ``sigma +/- i Delta >= 0``."""
    delta = symplectic_form(st.modes)
    plus = float(np.linalg.eigvalsh(st.cov + 1j * delta).min())
    minus = float(np.linalg.eigvalsh(st.cov - 1j * delta).min())
    return PsdCheck(ok=min(plus, minus) >= -tol, min_eig_plus=plus, min_eig_minus=minus)


def validate_channel(ch: GaussianChannel, tol: float = TOL_PSD) -> PsdCheck:
    """Check complete positivity: ``noise +/- i (Delta_out - K^T Delta_in K) >= 0``.

    The factor matches the state convention ``sigma +/- i Delta >= 0`` (vacuum
    covariance I); it makes validity propagate through apply_gaussian and puts
    the quantum-limited attenuator exactly on the boundary.
    """
    bracket = symplectic_form(ch.modes_out) - ch.scale.T @ symplectic_form(ch.modes_in) @ ch.scale
    plus = float(np.linalg.eigvalsh(ch.noise + 1j * bracket).min())
    minus = float(np.linalg.eigvalsh(ch.noise - 1j * bracket).min())
    return PsdCheck(ok=min(plus, minus) >= -tol, min_eig_plus=plus, min_eig_minus=minus)


def _require(check: PsdCheck, problem: str) -> None:
    """Raise ``problem`` with the worst validity eigenvalue when a check failed."""
    if not check:
        raise ValidationError(
            f"{problem} (min eigenvalue {min(check.min_eig_plus, check.min_eig_minus):.3e})"
        )


def apply_gaussian(ch: GaussianChannel, st: GaussianState) -> GaussianState:
    """Push a state through a channel: ``m -> m K + l``, ``sigma -> alpha + K^T sigma K``.

    Both arguments must be valid; the output then satisfies the uncertainty
    condition automatically.
    """
    if ch.modes_in != st.modes:
        raise ValidationError(
            f"channel expects {ch.modes_in} input modes, state has {st.modes}"
        )
    _require(validate_state(st), "input state violates the uncertainty condition")
    _require(validate_channel(ch), "channel parameters violate complete positivity")
    return GaussianState(
        mean=st.mean @ ch.scale + ch.shift,
        cov=ch.noise + ch.scale.T @ st.cov @ ch.scale,
    )


def _char_values(means: np.ndarray, covs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``exp(i m.z - z.sigma.z / 2)`` for means (S, 2s), covs (S, 2s, 2s) at points (P, 2s): (S, P)."""
    quad = np.sum((points @ covs) * points, axis=-1)
    return np.exp(1j * (means @ points.T) - 0.5 * quad)


def char_fn(st: GaussianState, z) -> complex | np.ndarray:
    """Characteristic function ``exp(i m.z - z.sigma.z / 2)`` at phase-space points.

    A point of shape (2s,) gives a ``complex``; a (P, 2s) stack gives the P values.
    """
    z = np.asarray(z, dtype=np.float64)
    d = 2 * st.modes
    if z.shape != (d,) and (z.ndim != 2 or z.shape[1] != d):
        raise ValidationError(f"argument of shape {z.shape} does not match {st.modes} modes")
    values = _char_values(st.mean[None], st.cov[None], np.atleast_2d(z))[0]
    return complex(values[0]) if z.ndim == 1 else values


def dual_weyl_symbol(ch: GaussianChannel, z) -> tuple[np.ndarray, complex]:
    """The dual action on a plane-wave symbol at z: the pulled-back point and the factor.

    Satisfies ``char_fn(apply_gaussian(ch, st), z) ==
    char_fn(st, point) * factor`` for every valid state.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (2 * ch.modes_out,):
        raise ValidationError(f"argument of shape {z.shape} does not match {ch.modes_out} output modes")
    point = ch.scale @ z
    factor = complex(_char_values(ch.shift[None], ch.noise[None], z[None])[0, 0])
    return point, factor


def compose(first: GaussianChannel, then: GaussianChannel) -> GaussianChannel:
    """Parameters of the composite channel (apply ``first``, then ``then``)."""
    if first.modes_out != then.modes_in:
        raise ValidationError(
            f"cannot compose: first channel outputs {first.modes_out} modes, "
            f"second expects {then.modes_in}"
        )
    return GaussianChannel(
        scale=first.scale @ then.scale,
        shift=first.shift @ then.scale + then.shift,
        noise=then.scale.T @ first.noise @ then.scale + then.noise,
    )


def vacuum(modes: int = 1) -> GaussianState:
    return GaussianState(mean=np.zeros(2 * modes), cov=np.eye(2 * modes))


def coherent_state(eta: complex) -> GaussianState:
    """Single-mode displaced vacuum with amplitude ``eta``."""
    eta = complex(eta)
    return GaussianState(mean=np.array([2.0 * eta.real, 2.0 * eta.imag]), cov=np.eye(2))


def identity_gaussian(modes: int = 1) -> GaussianChannel:
    d = 2 * modes
    return GaussianChannel(scale=np.eye(d), shift=np.zeros(d), noise=np.zeros((d, d)))


def attenuator(k: float) -> GaussianChannel:
    """The single-mode quantum-limited attenuator with transmissivity ``k``.

    Scale ``k I``, no shift, noise ``(1 - k^2) I``; maps the coherent state
    of amplitude ``eta`` to the one of amplitude ``k eta`` and fixes the
    vacuum.
    """
    if not 0.0 < k <= 1.0:
        raise ValidationError(f"transmissivity must lie in (0, 1], got {k}")
    return GaussianChannel(
        scale=k * np.eye(2),
        shift=np.zeros(2),
        noise=(1.0 - k * k) * np.eye(2),
    )


def coherent_overlap(a: complex, b: complex) -> float:
    """Squared overlap of two coherent states, ``exp(-|a - b|^2)``."""
    return float(np.exp(-abs(complex(a) - complex(b)) ** 2))


def attenuator_output_distance(k: float, k_prime: float, eta: complex) -> float:
    """Trace distance of two attenuated coherent states.

    Attenuators with transmissivities k and k' send the coherent state of
    amplitude eta to coherent states of amplitudes k*eta and k'*eta; for
    two pure states the trace distance is ``2 sqrt(1 - overlap)``, giving
    ``2 sqrt(1 - exp(-(k - k')^2 |eta|^2))``.  This tends to 2 for any
    k != k' as |eta| grows, which is why no uniform-distance convergence
    can accompany the pointwise one.
    """
    for name, val in (("k", k), ("k_prime", k_prime)):
        if not 0.0 < val <= 1.0:
            raise ValidationError(f"transmissivity {name} must lie in (0, 1], got {val}")
    gap = (k - k_prime) ** 2 * abs(complex(eta)) ** 2
    return float(2.0 * np.sqrt(1.0 - np.exp(-gap)))


def z_grid(modes: int, half_width: float = 2.0, step: float = 1.0, max_points: int = 625) -> np.ndarray:
    """Deterministic phase-space grid {-hw, ..., hw}^(2s), truncated.

    Points come in lexicographic order; only the first ``max_points`` are built.
    """
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    if not max_points >= 1:
        raise ValidationError(f"max_points must be >= 1, got {max_points}")
    if not (step > 0 and half_width >= 0):
        raise ValidationError(f"grid needs step > 0 and half_width >= 0, got {step} and {half_width}")
    axis = np.arange(-half_width, half_width + step / 2, step)
    n, d = len(axis), 2 * modes
    count = min(max_points, n**d)
    # Only the last t coordinates vary over the kept points, and (n,) * d may overflow an index.
    t = next(t for t in range(1, d + 1) if n**t >= count)
    trailing = np.unravel_index(np.arange(count), (n,) * t)
    return np.column_stack([np.full(count, axis[0])] * (d - t) + [axis[i] for i in trailing])


@dataclass(frozen=True, eq=False)
class GaussianChannelSequence:
    """A limit Gaussian channel plus a rule for term n >= 1 (0 is the limit)."""

    limit: GaussianChannel
    term_fn: Callable[[int], GaussianChannel]

    def term(self, n: int) -> GaussianChannel:
        if n < 0:
            raise ValidationError(f"sequence index must be >= 0, got {n}")
        if n == 0:
            return self.limit
        ch = self.term_fn(n)
        if (ch.modes_in, ch.modes_out) != (self.limit.modes_in, self.limit.modes_out):
            raise ValidationError(
                f"term {n} acts between {ch.modes_in}->{ch.modes_out} modes, limit "
                f"between {self.limit.modes_in}->{self.limit.modes_out}"
            )
        return ch


def attenuator_sequence(k_fn: Callable[[int], float], k_limit: float) -> GaussianChannelSequence:
    """Attenuators with index-dependent transmissivities."""
    return GaussianChannelSequence(attenuator(k_limit), lambda n: attenuator(k_fn(n)))


@dataclass(frozen=True, eq=False)
class GaussianConvergenceReport:
    """Per-index parameter deviations and characteristic-function deviations.

    Parameter deviations are max-entry distances of (scale, shift, noise)
    from the limit; ``char_dev`` is the sup over the grid and the test
    states of the output characteristic-function gap.  The two columns
    vanish together exactly when the sequence converges pointwise.
    """

    indices: tuple
    scale_dev: tuple
    shift_dev: tuple
    noise_dev: tuple
    char_dev: tuple
    eps: float
    within_eps: tuple
    test_family: str = ""

    def __post_init__(self):
        n = len(self.indices)
        for name in ("scale_dev", "shift_dev", "noise_dev", "char_dev", "within_eps"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"column {name} has wrong length")
        for name in ("scale_dev", "shift_dev", "noise_dev", "char_dev"):
            if not all(math.isfinite(x) for x in getattr(self, name)):
                raise ValidationError(f"column {name} has non-finite entries")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "gaussian-convergence-report",
            "indices": list(self.indices),
            "scale_dev": list(self.scale_dev),
            "shift_dev": list(self.shift_dev),
            "noise_dev": list(self.noise_dev),
            "char_dev": list(self.char_dev),
            "eps": self.eps,
            "within_eps": list(self.within_eps),
            "test_family": self.test_family,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "scale_dev", "shift_dev", "noise_dev", "char_dev", "within_eps"])
            for row in zip(
                self.indices, self.scale_dev, self.shift_dev, self.noise_dev,
                self.char_dev, self.within_eps,
            ):
                writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def report_from_json_dict(doc: dict) -> GaussianConvergenceReport:
    """Rebuild a report from its JSON form, checking kind and columns."""
    if doc.get("kind") != "gaussian-convergence-report":
        raise ValidationError(f"not a gaussian-convergence-report (kind={doc.get('kind')!r})")
    try:
        return GaussianConvergenceReport(
            indices=tuple(int(n) for n in doc["indices"]),
            scale_dev=tuple(float(x) for x in doc["scale_dev"]),
            shift_dev=tuple(float(x) for x in doc["shift_dev"]),
            noise_dev=tuple(float(x) for x in doc["noise_dev"]),
            char_dev=tuple(float(x) for x in doc["char_dev"]),
            eps=float(doc["eps"]),
            within_eps=tuple(bool(b) for b in doc["within_eps"]),
            test_family=str(doc.get("test_family", "")),
        )
    except KeyError as exc:
        raise ValidationError(f"report document is missing field {exc}") from exc


def default_gaussian_test_states(modes: int) -> list[GaussianState]:
    """Vacuum, a displaced vacuum, and a noisy state, on the given mode count."""
    d = 2 * modes
    displaced = np.zeros(d)
    displaced[0] = 2.0
    return [
        vacuum(modes),
        GaussianState(mean=displaced, cov=np.eye(d)),
        GaussianState(mean=np.zeros(d), cov=3.0 * np.eye(d)),
    ]


def param_convergence_check(
    seq: GaussianChannelSequence,
    ns,
    eps: float,
    test_states: list[GaussianState] | None = None,
    grid: np.ndarray | None = None,
) -> GaussianConvergenceReport:
    """Probe parameter convergence against characteristic-function convergence.

    For each index the report carries the max-entry deviation of each
    parameter from the limit and the sup over ``grid`` x ``test_states`` of
    the output characteristic-function deviation; ``within_eps`` flags
    indices where all four are at most ``eps``.  Parameter convergence and
    pointwise convergence of the outputs are equivalent, so the two sides
    must co-vanish; the report exists to exhibit that numerically.

    An empty state list or a grid that is not a nonempty (P, 2 s_out) stack
    raises ValidationError.  Each term is validated once and gives all its
    output characteristic values in one (states x points) evaluation.
    """
    ns = [int(n) for n in ns]
    limit = seq.limit
    states = test_states if test_states is not None else default_gaussian_test_states(limit.modes_in)
    if not states:
        raise ValidationError("the test-state family is empty")
    for st in states:
        if st.modes != limit.modes_in:
            raise ValidationError(
                f"test state has {st.modes} modes, channel expects {limit.modes_in}"
            )
        _require(validate_state(st), "test state violates the uncertainty condition")
    pts = np.asarray(grid if grid is not None else z_grid(limit.modes_out), dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0 or pts.shape[1] != 2 * limit.modes_out:
        raise ValidationError(f"grid of shape {pts.shape} is not a nonempty (P, {2 * limit.modes_out}) stack")
    means = np.stack([st.mean for st in states])
    covs = np.stack([st.cov for st in states])

    def output_chars(ch):
        _require(validate_channel(ch), "channel parameters violate complete positivity")
        return _char_values(means @ ch.scale + ch.shift, ch.noise + ch.scale.T @ covs @ ch.scale, pts)

    base = output_chars(limit)

    def evaluate(n):
        ch = seq.term(n)
        k_dev = float(np.max(np.abs(ch.scale - limit.scale)))
        l_dev = float(np.max(np.abs(ch.shift - limit.shift)))
        a_dev = float(np.max(np.abs(ch.noise - limit.noise)))
        worst = float(np.max(np.abs(output_chars(ch) - base)))
        flag = max(k_dev, l_dev, a_dev, worst) <= eps
        return k_dev, l_dev, a_dev, worst, flag

    rows = pmap(evaluate, ns)
    return GaussianConvergenceReport(
        indices=tuple(ns),
        scale_dev=tuple(r[0] for r in rows),
        shift_dev=tuple(r[1] for r in rows),
        noise_dev=tuple(r[2] for r in rows),
        char_dev=tuple(r[3] for r in rows),
        eps=float(eps),
        within_eps=tuple(r[4] for r in rows),
        test_family=f"{len(states)} states x {len(pts)} grid points",
    )
