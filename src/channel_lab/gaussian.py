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
  ``alpha +/- i (Delta_out - K^T Delta_in K) >= 0``.
* Both validity conditions are ``sym +/- i skew >= 0`` for a real symmetric
  ``sym`` and a real antisymmetric ``skew``.  The two signs give complex
  conjugate Hermitian matrices, which share their spectrum, so one
  eigensolve of ``sym + i skew`` (:func:`_psd_checks`) serves both.
* A coherent state of amplitude ``a`` is the displaced vacuum with mean
  ``(2 Re a, 2 Im a)``; this is the scaling that reproduces the squared
  overlap ``exp(-|a - b|^2)``.
* Characteristic values are kept as their real exponents
  ``a = -z.sigma.z / 2`` and ``b = m.z``, two GEMMs over a stack of points.
  The sweep compares two values through the identity
  ``|e^(a + i b) - e^(a0 + i b0)|^2 = e^(2 max(a, a0)) *
  (expm1(-|a - a0|)^2 + 4 e^(-|a - a0|) sin^2((b - b0) / 2))``, so no complex
  exponential is formed.  The bracket lies in [0, 4] because the larger
  exponent is factored out; factoring out the limit's ``e^a0`` instead would
  overflow the bracket wherever ``e^a0`` underflows and the term's does not.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TOL_EIG, TOL_HERM, ValidationError, _integers, _numeric, _require_finite, _require_unit_interval
from .report import Report
from .sequences import ChannelSequence, _blocks, _per_block

_SYMPLECTIC_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _mode_count(modes) -> int:
    """``modes`` as a plain int, checked by ``core._integers`` (a bool is not a count), and positive.

    The one rule of every function here that takes a mode count.
    """
    (modes,) = _integers([modes], "modes")
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    return modes


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for the given number of modes."""
    return _symplectic(_mode_count(modes))


def _symplectic(modes: int) -> np.ndarray:
    """:func:`symplectic_form` of a count read off a validated state's or channel's shape, unchecked."""
    # np.kron(np.eye(modes), _SYMPLECTIC_BLOCK) entry for entry, signed zeros
    # included, without its call overhead.
    return (np.eye(modes)[:, None, :, None] * _SYMPLECTIC_BLOCK[:, None, :]).reshape(2 * modes, 2 * modes)


def _real_matrix(m, what: str) -> np.ndarray:
    """``m`` as a read-only float array by the rule of ``core._numeric``, checked to be finite."""
    a = _numeric(m, np.float64, what)
    _require_finite(a, what)
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
    """Result of a positivity check, with the smallest eigenvalue of ``sym + i skew``.

    ``sym - i skew`` is its complex conjugate, so ``min_eig`` is the smallest
    eigenvalue of both signs.
    """

    ok: bool
    min_eig: float

    def __bool__(self) -> bool:
        return self.ok


def _psd_checks(sym: np.ndarray, skew: np.ndarray) -> list[PsdCheck]:
    """The checks ``sym +/- i skew >= 0`` down to ``-TOL_EIG`` of a stack, with one batched eigvalsh.

    ``sym`` is a (B, n, n) stack of real symmetric matrices and ``skew``
    broadcasts against it with real antisymmetric matrices.  ``sym - i skew``
    is the complex conjugate of the Hermitian ``sym + i skew`` and has the
    same eigenvalues, so one eigensolve checks both signs.
    """
    lows = np.linalg.eigvalsh(sym + 1j * skew).min(axis=-1).tolist()
    return [PsdCheck(ok=low >= -TOL_EIG, min_eig=low) for low in lows]


def validate_state(st: GaussianState) -> PsdCheck:
    """Check the uncertainty condition ``sigma +/- i Delta >= 0`` down to ``-TOL_EIG``.

    One eigensolve serves both signs (see :func:`_psd_checks`).
    """
    return _psd_checks(st.cov[None], _symplectic(st.modes))[0]


def validate_channel(ch: GaussianChannel) -> PsdCheck:
    """Check complete positivity: ``noise +/- i (Delta_out - K^T Delta_in K) >= 0``.

    Eigenvalues down to ``-TOL_EIG`` pass, as for states, and one eigensolve
    serves both signs (see :func:`_psd_checks`).  The factor matches the
    state convention ``sigma +/- i Delta >= 0`` (vacuum covariance I); it
    makes validity propagate through apply_gaussian and puts the
    quantum-limited attenuator exactly on the boundary.
    """
    return _cp_checks(ch.scale[None], ch.noise[None])[0]


def _cp_checks(scales: np.ndarray, noises: np.ndarray) -> list[PsdCheck]:
    """:func:`validate_channel` of a stack of channels, with one batched eigvalsh.

    ``scales`` is (B, 2s_in, 2s_out) and ``noises`` is (B, 2s_out, 2s_out).
    """
    delta_in = _symplectic(scales.shape[1] // 2)
    bracket = _symplectic(scales.shape[2] // 2) - scales.transpose(0, 2, 1) @ delta_in @ scales
    return _psd_checks(noises, bracket)


def _require(check: PsdCheck, problem: str) -> None:
    """Raise ``problem`` with the worst validity eigenvalue when a check failed."""
    if not check:
        raise ValidationError(f"{problem} (min eigenvalue {check.min_eig:.3e})")


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


def _point_outer(points: np.ndarray) -> np.ndarray:
    """The (P, 4s^2) stack of flattened ``z (x) z``, against which ``z.sigma.z`` is one GEMM."""
    return (points[:, :, None] * points[:, None, :]).reshape(len(points), -1)


def _char_exponents(means: np.ndarray, covs: np.ndarray, points: np.ndarray, outer: np.ndarray):
    """The real exponents ``(-z.sigma.z / 2, m.z)`` for means (..., 2s), covs (..., 2s, 2s) at points (P, 2s).

    ``outer`` is ``_point_outer(points)``; each exponent is one GEMM, and both have shape (..., P).
    """
    d = points.shape[1]
    shape = means.shape[:-1] + (len(points),)
    a = covs.reshape(-1, d * d) @ outer.T
    a *= -0.5
    return a.reshape(shape), (means.reshape(-1, d) @ points.T).reshape(shape)


def _char_values(means: np.ndarray, covs: np.ndarray, points: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """``exp(i m.z - z.sigma.z / 2)`` of :func:`_char_exponents`, formed in one complex array."""
    a, b = _char_exponents(means, covs, points, outer)
    values = np.empty(a.shape, dtype=np.complex128)
    values.real = a
    values.imag = b
    return np.exp(values, out=values)


def _char_devs(a: np.ndarray, b: np.ndarray, a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """``max |exp(a + i b) - exp(a0 + i b0)|`` over all but the first axis, from the real exponents.

    ``a`` and ``b`` are (B, ...) and are overwritten; ``a0`` and ``b0``
    broadcast against them.  With ``top = max(a, a0)`` and
    ``g = expm1(-|a - a0|)`` the squared deviation is
    ``e^(2 top) * (g^2 + 4 (1 + g) sin^2((b - b0) / 2))`` (see the module
    docstring): the two moduli differ by ``e^top * |g|``, and ``1 + g`` is the
    ratio of the smaller to the larger.  The bracket lies in [0, 4], so the
    product underflows only where the larger modulus is below 1e-154.
    """
    top = np.maximum(a, a0)
    np.minimum(a, a0, out=a)
    a -= top
    np.expm1(a, out=a)
    top *= 2.0
    np.exp(top, out=top)
    b -= b0
    b *= 0.5
    np.sin(b, out=b)
    b *= b
    b *= 4.0
    b *= top
    # top holds E = e^(2 max) and b is 4 E sin^2; top becomes g^2 E + (1 + g) b
    # Horner-wise, with no temporary array.
    top *= a
    top += b
    top *= a
    top += b
    return np.sqrt(top.reshape(len(top), -1).max(axis=1))


def char_fn(st: GaussianState, z) -> complex | np.ndarray:
    """Characteristic function ``exp(i m.z - z.sigma.z / 2)`` at phase-space points.

    A point of shape (2s,) gives a ``complex``; a (P, 2s) stack gives the P
    values.  Every coordinate must be finite.
    """
    z = _numeric(z, np.float64, "phase-space point")
    d = 2 * st.modes
    if z.shape != (d,) and (z.ndim != 2 or z.shape[1] != d):
        raise ValidationError(f"argument of shape {z.shape} does not match {st.modes} modes")
    _require_finite(z, "phase-space point")
    pts = np.atleast_2d(z)
    values = _char_values(st.mean, st.cov, pts, _point_outer(pts))
    return complex(values[0]) if z.ndim == 1 else values


def dual_weyl_symbol(ch: GaussianChannel, z) -> tuple[np.ndarray, complex]:
    """The dual action on a plane-wave symbol at z: the pulled-back point and the factor.

    Satisfies ``char_fn(apply_gaussian(ch, st), z) ==
    char_fn(st, point) * factor`` for every valid state.  Every coordinate of
    z must be finite.
    """
    z = _numeric(z, np.float64, "phase-space point")
    if z.shape != (2 * ch.modes_out,):
        raise ValidationError(f"argument of shape {z.shape} does not match {ch.modes_out} output modes")
    _require_finite(z, "phase-space point")
    point = ch.scale @ z
    factor = complex(_char_values(ch.shift, ch.noise, z[None], _point_outer(z[None]))[0])
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
    modes = _mode_count(modes)
    return GaussianState(mean=np.zeros(2 * modes), cov=np.eye(2 * modes))


def coherent_state(eta: complex) -> GaussianState:
    """Single-mode displaced vacuum with amplitude ``eta``."""
    eta = complex(eta)
    return GaussianState(mean=np.array([2.0 * eta.real, 2.0 * eta.imag]), cov=np.eye(2))


def identity_gaussian(modes: int = 1) -> GaussianChannel:
    d = 2 * _mode_count(modes)
    return GaussianChannel(scale=np.eye(d), shift=np.zeros(d), noise=np.zeros((d, d)))


def attenuator(k: float) -> GaussianChannel:
    """The single-mode quantum-limited attenuator with transmissivity ``k``.

    Scale ``k I``, no shift, noise ``(1 - k^2) I``; maps the coherent state
    of amplitude ``eta`` to the one of amplitude ``k eta`` and fixes the
    vacuum.
    """
    _require_unit_interval(k, "transmissivity", open_low=True)
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
    _require_unit_interval(k, "transmissivity k", open_low=True)
    _require_unit_interval(k_prime, "transmissivity k_prime", open_low=True)
    if not cmath.isfinite(eta):
        raise ValidationError(f"coherent amplitude eta must be finite, got {eta}")
    gap = (k - k_prime) ** 2 * abs(complex(eta)) ** 2
    return float(2.0 * np.sqrt(1.0 - np.exp(-gap)))


def z_grid(modes: int, max_points: int = 625) -> np.ndarray:
    """Deterministic phase-space grid {-2, -1, 0, 1, 2}^(2s), truncated.

    Points come in lexicographic order; only the first ``max_points`` are built.
    Both counts must be integers (a bool is not).
    """
    modes = _mode_count(modes)
    (max_points,) = _integers([max_points], "max_points")
    if max_points < 1:
        raise ValidationError(f"max_points must be >= 1, got {max_points}")
    axis = np.arange(-2.0, 3.0)
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
    modes = _mode_count(modes)
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
    grid: np.ndarray | None = None,
) -> Report:
    """Probe parameter convergence against characteristic-function convergence.

    For each index the report carries the max-entry deviation of each
    parameter from the limit and the sup over ``grid`` (default
    ``z_grid(modes_out)``) x ``default_gaussian_test_states(modes_in)`` of
    the output characteristic-function deviation; ``within_eps`` flags
    indices where all four are at most ``eps``.  Parameter convergence and
    pointwise convergence of the outputs are equivalent, so the two sides
    must co-vanish; the report exists to exhibit that numerically.

    An index that is not an integer (a bool is not), or a grid that is not a
    nonempty (P, 2 s_out) stack of finite points, raises ValidationError
    before any term is built.  The indices are swept in blocks of at most
    ``sequences.SWEEP_BLOCK_ENTRIES // (states x points)`` (at least one),
    by the block rule of the Kraus sweeps, so memory does not grow with
    ``len(ns)``.  Each block builds its terms in index order, checks their
    complete positivity with one batched eigenvalue call, and stacks the two
    real exponents ``a = -z.sigma.z / 2`` and ``b = m.z`` of all their output
    characteristic values, one GEMM each; the limit's ``a0`` and ``b0`` are
    computed once.  ``char_dev`` is the square root of the largest
    ``e^(2 max(a, a0)) * (expm1(-|a - a0|)^2 + 4 e^(-|a - a0|)
    sin^2((b - b0) / 2))``, which is ``|e^(a + i b) - e^(a0 + i b0)|^2``
    without a complex exponential.  Factoring out ``e^max(a, a0)`` keeps the
    bracket in [0, 4], so nothing overflows where the limit's exponential
    underflows (a noisy limit far out on the grid).  Errors surface in
    index order, with one exception: a term that fails to build is reported
    even when an earlier term of the same block violates complete
    positivity.
    """
    ns = _integers(ns, "param_convergence_check: indices")
    limit = seq.limit
    states = default_gaussian_test_states(limit.modes_in)
    means = np.stack([st.mean for st in states])
    covs = np.stack([st.cov for st in states])
    pts = _numeric(grid if grid is not None else z_grid(limit.modes_out), np.float64, "grid")
    if pts.ndim != 2 or len(pts) == 0 or pts.shape[1] != 2 * limit.modes_out:
        raise ValidationError(f"grid of shape {pts.shape} is not a nonempty (P, {2 * limit.modes_out}) stack")
    _require_finite(pts, "grid")
    outer = _point_outer(pts)

    def output_exponents(chs):
        """The stacked (scale, shift, noise) of ``chs`` and the (B, states, points) exponents of their outputs."""
        scales, shifts, noises = (
            np.stack([getattr(ch, field) for ch in chs]) for field in ("scale", "shift", "noise")
        )
        for check in _cp_checks(scales, noises):
            _require(check, "channel parameters violate complete positivity")
        out_means = means @ scales + shifts[:, None]
        out_covs = noises[:, None] + scales.transpose(0, 2, 1)[:, None] @ covs @ scales[:, None]
        return (scales, shifts, noises), _char_exponents(out_means, out_covs, pts, outer)

    limit_params, (a0, b0) = output_exponents([limit])
    devs = np.empty((4, len(ns)))
    for rows, block in _blocks(ns, _per_block(a0.size)):
        params, (a, b) = output_exponents([seq.term(n) for n in block])
        for dev, got, ref in zip(devs, params, limit_params):
            dev[rows] = np.abs(got - ref).reshape(len(got), -1).max(axis=1)
        devs[3, rows] = _char_devs(a, b, a0, b0)
    return Report(
        "gaussian-convergence-report",
        ns,
        eps=float(eps),
        test_family=f"{len(states)} states x {len(pts)} grid points",
        scale_dev=devs[0],
        shift_dev=devs[1],
        noise_dev=devs[2],
        char_dev=devs[3],
        within_eps=devs.max(axis=0) <= eps,
    )
