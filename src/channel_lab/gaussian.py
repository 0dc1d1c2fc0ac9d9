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

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._parallel import pmap
from .core import TOL_EIG, TOL_HERM, ValidationError
from .report import Report
from .sequences import ChannelSequence


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
        if np.max(np.abs(c - c.T)) > TOL_HERM:
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
        if np.max(np.abs(a - a.T)) > TOL_HERM:
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

    @property
    def signature(self) -> str:
        """The mode counts the channel acts between, as text; sequences compare it term by term."""
        return f"{self.modes_in}->{self.modes_out} modes"


@dataclass(frozen=True)
class PsdCheck:
    """Result of a positivity check, with the offending eigenvalues."""

    ok: bool
    min_eig_plus: float
    min_eig_minus: float

    def __bool__(self) -> bool:
        return self.ok


def validate_state(st: GaussianState) -> PsdCheck:
    """Check the uncertainty condition ``sigma +/- i Delta >= 0`` down to ``-TOL_EIG``."""
    delta = symplectic_form(st.modes)
    plus = float(np.linalg.eigvalsh(st.cov + 1j * delta).min())
    minus = float(np.linalg.eigvalsh(st.cov - 1j * delta).min())
    return PsdCheck(ok=min(plus, minus) >= -TOL_EIG, min_eig_plus=plus, min_eig_minus=minus)


def validate_channel(ch: GaussianChannel) -> PsdCheck:
    """Check complete positivity: ``noise +/- i (Delta_out - K^T Delta_in K) >= 0``.

    Eigenvalues down to ``-TOL_EIG`` pass, as for states.  The factor matches
    the state convention ``sigma +/- i Delta >= 0`` (vacuum covariance I); it
    makes validity propagate through apply_gaussian and puts the
    quantum-limited attenuator exactly on the boundary.
    """
    bracket = symplectic_form(ch.modes_out) - ch.scale.T @ symplectic_form(ch.modes_in) @ ch.scale
    plus = float(np.linalg.eigvalsh(ch.noise + 1j * bracket).min())
    minus = float(np.linalg.eigvalsh(ch.noise - 1j * bracket).min())
    return PsdCheck(ok=min(plus, minus) >= -TOL_EIG, min_eig_plus=plus, min_eig_minus=minus)


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
    if not cmath.isfinite(eta):
        raise ValidationError(f"coherent amplitude eta must be finite, got {eta}")
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


#: Older names of :class:`~channel_lab.sequences.ChannelSequence` and
#: :class:`~channel_lab.report.Report`; the benchmark harness in ``bench/``
#: still looks them up here.
GaussianChannelSequence = ChannelSequence
GaussianConvergenceReport = Report


def attenuator_sequence(k_fn: Callable[[int], float], k_limit: float) -> ChannelSequence:
    """Attenuators with index-dependent transmissivities."""
    return ChannelSequence(attenuator(k_limit), lambda n: attenuator(k_fn(n)))


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
    seq: ChannelSequence,
    ns,
    eps: float,
    test_states: list[GaussianState] | None = None,
    grid: np.ndarray | None = None,
) -> Report:
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

    return Report.from_rows(
        "gaussian-convergence-report",
        ns,
        pmap(evaluate, ns),
        eps=float(eps),
        test_family=f"{len(states)} states x {len(pts)} grid points",
    )
