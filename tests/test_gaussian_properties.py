"""Property tests: batched characteristic functions, the dual chain identity, the
sweep's deviations from real exponents on far grids, the batched complete-positivity
check at the validity boundary, and the one eigensolve that serves both signs of a
validity check."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from channel_lab import gaussian  # noqa: E402
from channel_lab.core import TOL_EIG, ValidationError  # noqa: E402
from channel_lab.gaussian import (  # noqa: E402
    GaussianChannel,
    GaussianState,
    apply_gaussian,
    attenuator,
    char_fn,
    dual_weyl_symbol,
    param_convergence_check,
    symplectic_form,
    vacuum,
    validate_channel,
    validate_state,
)
from channel_lab.sequences import ChannelSequence  # noqa: E402
from test_gaussian import _naive_char_devs  # noqa: E402

_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _valid_channel(draw, s_in, s_out):
    """A valid channel from 2 s_in to 2 s_out, its noise padded like acceptance criterion 8."""
    d_in, d_out = 2 * s_in, 2 * s_out
    k = draw(arrays(np.float64, (d_in, d_out), elements=_ENTRIES))
    noise_seed = draw(arrays(np.float64, (d_out, d_out), elements=_ENTRIES))
    bracket = symplectic_form(s_out) - k.T @ symplectic_form(s_in) @ k
    pad = float(np.linalg.norm(bracket, 2))
    return GaussianChannel(
        scale=k,
        shift=draw(arrays(np.float64, (d_out,), elements=_ENTRIES)),
        noise=noise_seed @ noise_seed.T + pad * np.eye(d_out),
    )


@st.composite
def valid_pairs(draw):
    """A valid (state, channel) pair at 1-3 modes each side, built like acceptance criterion 8."""
    s_in = draw(st.integers(1, 3))
    s_out = draw(st.integers(1, 3))
    d_in = 2 * s_in
    ch = _valid_channel(draw, s_in, s_out)
    cov_seed = draw(arrays(np.float64, (d_in, d_in), elements=_ENTRIES))
    state = GaussianState(
        mean=draw(arrays(np.float64, (d_in,), elements=_ENTRIES)),
        cov=cov_seed @ cov_seed.T + np.eye(d_in),
    )
    return state, ch


@settings(derandomize=True, max_examples=50, deadline=None)
@given(valid_pairs())
def test_batched_char_fn_and_chain_identity_on_valid_pairs(pair):
    state, ch = pair
    assert validate_state(state).ok and validate_channel(ch).ok
    out = apply_gaussian(ch, state)
    # The first 40 points of the half-step grid {-1, -0.5, ..., 1}^(2 s_out), in lexicographic order.
    half_steps = itertools.product(np.arange(-1.0, 1.25, 0.5), repeat=2 * ch.modes_out)
    grid = np.array(list(itertools.islice(half_steps, 40)))
    batched = char_fn(out, grid)
    assert np.allclose(batched, [char_fn(out, z) for z in grid], rtol=0, atol=1e-12)
    for z, value in zip(grid, batched):
        point, factor = dual_weyl_symbol(ch, z)
        assert abs(value - char_fn(state, point) * factor) <= 1e-12


@st.composite
def far_grid_sequences(draw):
    """A valid limit and 1-5 valid terms at 1-2 modes each side, and a grid of 1-40 points
    whose farthest point has |z| = 30, where the exponents reach hundreds below zero."""
    s_in, s_out = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    limit, *terms = (_valid_channel(draw, s_in, s_out) for _ in range(draw(st.integers(2, 6))))
    raw = draw(arrays(np.float64, (draw(st.integers(1, 40)), 2 * s_out), elements=_ENTRIES))
    far = np.linalg.norm(raw, axis=1).max()
    grid = raw * (30.0 / far) if far > 0.0 else raw
    return ChannelSequence(limit, lambda n: terms[n - 1]), len(terms), grid


@settings(derandomize=True, max_examples=60, deadline=None)
@given(far_grid_sequences())
def test_sweep_deviations_match_the_naive_loop_on_far_grids(case):
    seq, count, grid = case
    ns = range(1, count + 1)
    states = gaussian.default_gaussian_test_states(seq.limit.modes_in)
    rep = param_convergence_check(seq, ns, eps=1.0, grid=grid)
    assert np.allclose(rep.char_dev, _naive_char_devs(seq, ns, states, grid), rtol=0, atol=1e-12)
    constant = ChannelSequence(seq.limit, lambda n: seq.limit)
    assert param_convergence_check(constant, ns, eps=1.0, grid=grid).char_dev == (0.0,) * count


@st.composite
def boundary_channels(draw):
    """A one-mode channel on or just off the complete-positivity boundary.

    Quantum-limited attenuators (k = 1 included, where the noise vanishes),
    optionally with their noise shrunk by a factor near ``TOL_EIG``, and
    channels with rank-deficient noise, valid only when ``det K = 1``.
    """
    if draw(st.booleans()):
        k = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
        shrink = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-6]))
        noise = (1.0 - k * k) * (1.0 - shrink) * np.eye(2)
        return GaussianChannel(scale=k * np.eye(2), shift=np.zeros(2), noise=noise)
    a = draw(st.floats(0.25, 4.0))
    det = draw(st.sampled_from([1.0, 1.0 - 1e-11, 1.0 - 1e-9, 0.5]))
    theta = draw(st.floats(0.0, np.pi))
    v = np.array([np.cos(theta), np.sin(theta)])
    noise = draw(st.sampled_from([0.0, 0.3, 2.0])) * np.outer(v, v)
    return GaussianChannel(scale=np.diag([a, det / a]), shift=np.zeros(2), noise=noise)


def _bits(check):
    return check.ok, check.min_eig.hex()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(boundary_channels(), min_size=1, max_size=6))
def test_batched_cp_check_equals_validate_channel_at_the_boundary(chans):
    scales, noises = np.stack([ch.scale for ch in chans]), np.stack([ch.noise for ch in chans])
    batched = gaussian._cp_checks(scales, noises)
    singles = [validate_channel(ch) for ch in chans]
    assert [_bits(c) for c in batched] == [_bits(c) for c in singles]
    assert [c.ok for c in singles] == [c.min_eig >= -TOL_EIG for c in singles]

    # The sweep checks these terms as one block and fails on the first invalid
    # one with apply_gaussian's message.
    seq = ChannelSequence(attenuator(1.0), lambda n: chans[n - 1])
    invalid = [ch for ch, c in zip(chans, singles) if not c.ok]
    if not invalid:
        param_convergence_check(seq, range(1, len(chans) + 1), eps=1.0)
        return
    with pytest.raises(ValidationError) as direct:
        apply_gaussian(invalid[0], vacuum())
    with pytest.raises(ValidationError) as swept:
        param_convergence_check(seq, range(1, len(chans) + 1), eps=1.0)
    assert str(swept.value) == str(direct.value)


@st.composite
def psd_problems(draw):
    """A stack of real symmetric ``sym`` and antisymmetric ``skew``, skew shared or per matrix.

    Random pairs, and attenuator brackets (``sym = (1 - k^2) I - offset I``,
    ``skew = (1 - k^2) Delta``): on the boundary at offset 0, and valid or
    invalid by a margin far above rounding at the other offsets.
    """
    modes, size = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n, delta = 2 * modes, symplectic_form(modes)
    syms, skews = [], []
    for _ in range(size):
        if draw(st.booleans()):
            k = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
            offset = draw(st.sampled_from([0.0, 1e-12, 0.5 * TOL_EIG, 2 * TOL_EIG, 1e-6]))
            syms.append((1.0 - k * k - offset) * np.eye(n))
            skews.append((1.0 - k * k) * delta)
        else:
            a, b = (draw(arrays(np.float64, (n, n), elements=_ENTRIES)) for _ in range(2))
            syms.append(a + a.T + draw(st.floats(0.0, 4.0)) * np.eye(n))
            skews.append(b - b.T)
    shared = draw(st.booleans())
    return np.stack(syms), skews[0] if shared else np.stack(skews)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(psd_problems())
def test_one_eigensolve_gives_the_two_sign_verdict(problem):
    sym, skew = problem
    checks = gaussian._psd_checks(sym, skew)
    plus = np.linalg.eigvalsh(sym + 1j * skew).min(axis=-1)
    minus = np.linalg.eigvalsh(sym - 1j * skew).min(axis=-1)
    assert len(checks) == len(sym)
    for check, s, k, p, m in zip(checks, sym, np.broadcast_to(skew, sym.shape), plus, minus):
        tol = 1e-12 * (1.0 + np.linalg.norm(s, 2) + np.linalg.norm(k, 2))
        assert check.ok == (min(p, m) >= -TOL_EIG)
        assert abs(check.min_eig - p) <= tol
        assert abs(check.min_eig - m) <= tol
