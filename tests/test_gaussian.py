import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from channel_lab import gaussian, sequences
from channel_lab.core import ValidationError, trace_norm
from channel_lab.gaussian import (
    GaussianChannel,
    GaussianState,
    apply_gaussian,
    attenuator,
    attenuator_output_distance,
    attenuator_sequence,
    char_fn,
    coherent_overlap,
    coherent_state,
    compose,
    dual_weyl_symbol,
    identity_gaussian,
    param_convergence_check,
    symplectic_form,
    vacuum,
    validate_channel,
    validate_state,
    z_grid,
)
from channel_lab.report import Report, from_json_dict
from channel_lab.sequences import ChannelSequence


def _fock_coherent(eta, cutoff=60):
    """Number-basis amplitudes of a coherent state, for independent checks."""
    n = np.arange(cutoff)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff)))))
    amps = np.exp(-abs(eta) ** 2 / 2) * eta ** n / np.exp(0.5 * log_fact)
    return amps.astype(np.complex128)


def _random_valid_state(modes, rng):
    a = rng.standard_normal((2 * modes, 2 * modes))
    return GaussianState(mean=rng.standard_normal(2 * modes), cov=a @ a.T + np.eye(2 * modes))


def _random_valid_channel(modes_in, modes_out, rng):
    k = rng.standard_normal((2 * modes_in, 2 * modes_out)) / np.sqrt(2 * modes_in)
    a = rng.standard_normal((2 * modes_out, 2 * modes_out))
    bracket = symplectic_form(modes_out) - k.T @ symplectic_form(modes_in) @ k
    pad = float(np.linalg.norm(bracket, 2))
    return GaussianChannel(scale=k, shift=rng.standard_normal(2 * modes_out), noise=a @ a.T + pad * np.eye(2 * modes_out))


def test_symplectic_form_two_modes():
    want = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    assert np.array_equal(symplectic_form(2), want)
    with pytest.raises(ValidationError, match="positive"):
        symplectic_form(0)


def test_state_construction_validation():
    with pytest.raises(ValidationError, match="even length"):
        GaussianState(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(ValidationError, match="not symmetric"):
        GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="does not match"):
        GaussianState(mean=np.zeros(2), cov=np.eye(4))


def test_vacuum_sits_on_the_uncertainty_boundary():
    check = validate_state(vacuum())
    assert check.ok
    assert check.min_eig == pytest.approx(0.0, abs=1e-12)


def test_squeezed_below_vacuum_is_invalid():
    check = validate_state(GaussianState(mean=np.zeros(2), cov=np.eye(2) / 2))
    assert not check.ok
    assert check.min_eig == pytest.approx(-0.5, abs=1e-12)


def test_attenuator_sits_on_the_positivity_boundary():
    # noise (1-k^2) I against bracket (1-k^2) Delta gives eigenvalues (1-k^2)(1 +- 1)
    check = validate_channel(attenuator(0.5))
    assert check.ok
    assert check.min_eig == pytest.approx(0.0, abs=1e-12)
    assert validate_channel(attenuator(1.0)).ok
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        attenuator(0.0)
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        attenuator(1.5)


def test_char_fn_hand_values():
    z = np.array([1.0, 0.0])
    assert char_fn(vacuum(), z) == pytest.approx(math.exp(-0.5), abs=1e-15)
    got = char_fn(coherent_state(0.5), z)
    want = np.exp(1j) * math.exp(-0.5)
    assert got == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValidationError, match="does not match"):
        char_fn(vacuum(), np.zeros(4))


def test_char_fn_on_a_point_stack_matches_scalar_calls(rng):
    for modes in (1, 2, 3):
        st = _random_valid_state(modes, rng)
        pts = rng.standard_normal((17, 2 * modes))
        got = char_fn(st, pts)
        assert got.shape == (17,)
        # batched and single-point products may round differently in the last bit
        assert np.allclose(got, [char_fn(st, z) for z in pts], rtol=0, atol=1e-15)
        assert isinstance(char_fn(st, pts[0]), complex)
    for bad in (np.zeros((3, 4)), np.zeros((2, 2, 2)), np.zeros(3), np.zeros(())):
        with pytest.raises(ValidationError, match="does not match"):
            char_fn(vacuum(), bad)


@pytest.mark.parametrize("modes", [1, 2])
def test_char_fn_on_an_empty_point_stack_gives_no_values(modes):
    got = char_fn(vacuum(modes), np.zeros((0, 2 * modes)))
    assert got.shape == (0,) and got.dtype == np.complex128


def test_attenuator_scales_coherent_amplitudes():
    out = apply_gaussian(attenuator(0.25), coherent_state(2.0 - 1.0j))
    want = coherent_state(0.25 * (2.0 - 1.0j))
    assert np.allclose(out.mean, want.mean, atol=1e-14)
    assert np.allclose(out.cov, want.cov, atol=1e-14)


def test_apply_gaussian_rejects_invalid_inputs():
    squeezed = GaussianState(mean=np.zeros(2), cov=np.eye(2) / 2)
    with pytest.raises(ValidationError, match="uncertainty condition"):
        apply_gaussian(attenuator(0.5), squeezed)
    bad = GaussianChannel(scale=2.0 * np.eye(2), shift=np.zeros(2), noise=np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="complete positivity"):
        apply_gaussian(bad, vacuum())
    two_mode = GaussianChannel(scale=np.eye(4), shift=np.zeros(4), noise=np.zeros((4, 4)))
    with pytest.raises(ValidationError, match="input modes"):
        apply_gaussian(two_mode, vacuum())


def test_dual_weyl_symbol_chain_identity(rng):
    for _ in range(20):
        s_in = int(rng.integers(1, 3))
        s_out = int(rng.integers(1, 3))
        ch = _random_valid_channel(s_in, s_out, rng)
        st = _random_valid_state(s_in, rng)
        out = apply_gaussian(ch, st)
        for z in z_grid(s_out, max_points=9):
            point, factor = dual_weyl_symbol(ch, z)
            assert abs(char_fn(out, z) - char_fn(st, point) * factor) < 1e-12


def test_compose_matches_chained_application(rng):
    a = _random_valid_channel(2, 1, rng)
    b = _random_valid_channel(1, 2, rng)
    st = _random_valid_state(2, rng)
    chained = apply_gaussian(b, apply_gaussian(a, st))
    joint = apply_gaussian(compose(a, b), st)
    assert np.allclose(joint.mean, chained.mean, atol=1e-12)
    assert np.allclose(joint.cov, chained.cov, atol=1e-12)
    with pytest.raises(ValidationError, match="cannot compose"):
        compose(b, b)


def test_attenuators_compose_multiplicatively():
    got = compose(attenuator(0.8), attenuator(0.5))
    want = attenuator(0.4)
    assert np.allclose(got.scale, want.scale, atol=1e-15)
    assert np.allclose(got.noise, want.noise, atol=1e-15)
    assert np.allclose(got.shift, want.shift, atol=1e-15)


def test_coherent_overlap_against_fock_oracle():
    for a, b in ((0.0, 1.0), (0.3 + 0.4j, -0.2 + 0.1j), (1.5, 1.0)):
        amps_a = _fock_coherent(a)
        amps_b = _fock_coherent(b)
        fock = abs(np.vdot(amps_a, amps_b)) ** 2
        assert coherent_overlap(a, b) == pytest.approx(fock, abs=1e-10)


def test_coherent_mean_convention_against_quadrature_oracle():
    """The displaced-vacuum convention must reproduce exp(-|a-b|^2) through
    the phase-space overlap integral (1/pi) int phi_a conj(phi_b)."""
    a, b = 0.3 + 0.4j, -0.2 + 0.1j
    xs = np.arange(-8.0, 8.0, 0.05)
    zx, zy = np.meshgrid(xs, xs, indexing="ij")
    sa, sb = coherent_state(a), coherent_state(b)
    integrand = (
        np.exp(1j * (sa.mean[0] * zx + sa.mean[1] * zy) - (zx**2 + zy**2) / 2)
        * np.exp(-1j * (sb.mean[0] * zx + sb.mean[1] * zy) - (zx**2 + zy**2) / 2)
    )
    integral = integrand.sum() * 0.05 * 0.05 / np.pi
    assert abs(integral - coherent_overlap(a, b)) < 1e-3


def test_attenuator_output_distance_against_fock_trace_norm():
    k, k_prime, eta = 0.6, 0.5, 2.0
    rho_a = np.outer(_fock_coherent(k * eta), _fock_coherent(k * eta).conj())
    rho_b = np.outer(_fock_coherent(k_prime * eta), _fock_coherent(k_prime * eta).conj())
    fock = trace_norm(rho_a - rho_b)
    assert attenuator_output_distance(k, k_prime, eta) == pytest.approx(fock, abs=1e-8)
    with pytest.raises(ValidationError, match="transmissivity k_prime"):
        attenuator_output_distance(0.5, 0.0, 1.0)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), complex(0.0, float("-inf")), complex(float("nan"), 1.0)])
def test_attenuator_output_distance_rejects_non_finite_amplitudes(eta):
    with pytest.raises(ValidationError, match="eta must be finite"):
        attenuator_output_distance(0.6, 0.5, eta)


def _product_grid(axis, modes: int, max_points: int) -> np.ndarray:
    """The first ``max_points`` of ``axis``^(2 modes) in lexicographic order, as rows."""
    return np.array(list(itertools.islice(itertools.product(axis, repeat=2 * modes), max_points)))


def test_z_grid_matches_the_lexicographic_product():
    for modes in (1, 2, 3):
        for max_points in (1, 2, 7, 25, 26, 624, 625, 626, 10**6):
            got = z_grid(modes, max_points)
            assert got.dtype == np.float64
            assert np.array_equal(got, _product_grid([-2.0, -1.0, 0.0, 1.0, 2.0], modes, max_points))


def test_z_grid_builds_only_the_kept_points_of_a_huge_product():
    # 5**40 grid points overflow int64; the first three differ in the last axis only
    got = z_grid(20, max_points=3)
    assert got.shape == (3, 40)
    assert np.array_equal(got[:, :39], np.full((3, 39), -2.0))
    assert np.array_equal(got[:, 39], [-2.0, -1.0, 0.0])


@pytest.mark.parametrize(
    "kwargs",
    [{"max_points": 0}, {"max_points": -3}, {"modes": 0}, {"modes": -1}],
)
def test_z_grid_rejects_empty_or_degenerate_parameters(kwargs):
    with pytest.raises(ValidationError, match="max_points must be >= 1|mode count must be positive"):
        z_grid(**{"modes": 1, **kwargs})


@pytest.mark.parametrize(
    "max_points", [2.5, 0.5, float("nan"), float("-inf"), True, np.float64(3.0), None, "5"], ids=repr
)
def test_z_grid_rejects_a_point_count_that_is_not_an_integer(max_points):
    """The type is checked before the value, so no comparison can raise a bare TypeError."""
    with pytest.raises(ValidationError, match=r"^max_points must be integers, got \["):
        z_grid(1, max_points=max_points)


@pytest.mark.parametrize("modes", [True, 1.5, "1"], ids=repr)
def test_z_grid_rejects_a_mode_count_that_is_not_an_integer(modes):
    with pytest.raises(ValidationError, match=r"^modes must be integers, got \["):
        z_grid(modes, 3)


#: Every function that takes a mode count, called on that count alone.
_MODE_COUNT_TAKERS = (
    symplectic_form,
    vacuum,
    identity_gaussian,
    gaussian.default_gaussian_test_states,
    z_grid,
)


@pytest.mark.parametrize(
    "modes, message",
    [
        (True, "modes must be integers, got [True]"),
        (1.5, "modes must be integers, got [1.5]"),
        (0, "mode count must be positive, got 0"),
        (-1, "mode count must be positive, got -1"),
    ],
    ids=repr,
)
def test_every_mode_count_is_checked_by_one_rule(modes, message):
    for take in _MODE_COUNT_TAKERS:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            take(modes)


def test_a_mode_count_of_any_integer_type_is_taken():
    assert symplectic_form(np.int64(2)).shape == (4, 4)
    assert vacuum(np.int64(2)).modes == 2
    assert identity_gaussian(np.int64(2)).modes_in == 2
    assert [st.modes for st in gaussian.default_gaussian_test_states(np.int64(2))] == [2, 2, 2]
    assert z_grid(np.int64(2), 3).shape == (3, 4)


def test_z_grid_shape_and_truncation():
    pts = z_grid(1)
    assert pts.shape == (25, 2)
    assert np.array_equal(pts[0], [-2.0, -2.0])
    assert np.array_equal(pts[-1], [2.0, 2.0])
    short = z_grid(1, max_points=7)
    assert short.shape == (7, 2)
    assert np.array_equal(z_grid(1, max_points=np.int64(7)), short)


def test_gaussian_sequence_term_checks():
    seq = attenuator_sequence(lambda n: 0.5 + 0.4 / n, 0.5)
    assert seq.term(0) is seq.limit
    assert seq.term(2).scale[0, 0] == pytest.approx(0.7)
    with pytest.raises(ValidationError, match=">= 0"):
        seq.term(-1)
    mismatched = ChannelSequence(
        identity_gaussian(1),
        lambda n: identity_gaussian(2),
    )
    with pytest.raises(ValidationError, match="modes"):
        mismatched.term(1)


def test_param_convergence_check_constant_sequence():
    seq = ChannelSequence(attenuator(0.5), lambda n: attenuator(0.5))
    rep = param_convergence_check(seq, [1, 2, 3], eps=1e-9)
    assert rep.scale_dev == (0.0, 0.0, 0.0)
    assert rep.char_dev == (0.0, 0.0, 0.0)
    assert rep.within_eps == (True, True, True)


def test_param_convergence_check_sees_oscillating_shift():
    """A unit shift on odd indices moves the grid characteristic function by
    a frozen amount; even indices match the limit exactly."""
    def term(n):
        return GaussianChannel(np.eye(2), np.array([float(n % 2), 0.0]), np.zeros((2, 2)))

    seq = ChannelSequence(identity_gaussian(1), term)
    rep = param_convergence_check(seq, [1, 2, 3, 4], eps=1e-9)
    assert rep.shift_dev == (1.0, 0.0, 1.0, 0.0)
    assert rep.within_eps == (False, True, False, True)
    # sup over the default grid and states: exp(-1/2) * 2 sin(1/2) at z = (1, 0)
    want = math.exp(-0.5) * 2.0 * math.sin(0.5)
    assert rep.char_dev[0] == pytest.approx(want, abs=1e-12)
    assert rep.char_dev[0] == pytest.approx(0.5815725764253837, abs=1e-9)


def test_param_convergence_check_attenuator_sweep_co_vanishes():
    seq = attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5)
    rep = param_convergence_check(seq, range(2, 41), eps=1e-6)
    params = [
        max(s, h, a)
        for s, h, a in zip(rep.scale_dev, rep.shift_dev, rep.noise_dev)
    ]
    assert all(x > y for x, y in zip(params, params[1:]))
    assert all(x > y for x, y in zip(rep.char_dev, rep.char_dev[1:]))
    ratios = [c / p for c, p in zip(rep.char_dev, params)]
    assert 0.5 < min(ratios) and max(ratios) < 2.0


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_default_gaussian_test_states_are_valid(modes):
    # param_convergence_check sweeps these states without checking them.
    states = gaussian.default_gaussian_test_states(modes)
    assert len(states) == 3
    for st in states:
        assert st.modes == modes
        assert validate_state(st).ok


def _char_oracle(st, z):
    return complex(np.exp(1j * (st.mean @ z) - 0.5 * (z @ st.cov @ z)))


def _naive_char_devs(seq, ns, states, grid):
    """The per-state, per-point loop: apply_gaussian, then the closed form at each z."""
    base = [apply_gaussian(seq.limit, st) for st in states]
    devs = []
    for n in ns:
        outs = [apply_gaussian(seq.term(n), st) for st in states]
        devs.append(max(
            abs(_char_oracle(out, z) - _char_oracle(ref, z))
            for out, ref in zip(outs, base) for z in grid
        ))
    return devs


def test_param_convergence_check_survives_a_limit_whose_exponentials_underflow():
    """Limit noise 1000 I puts the limit's exponent below -2000 at every grid point, where
    its exponential is 0.0; the term's (noise I) is at least e^-16 there.  A deviation
    factored by the limit's exponential would multiply 0.0 by an overflowed bracket."""
    limit = GaussianChannel(scale=np.eye(2), shift=np.zeros(2), noise=1000.0 * np.eye(2))
    term = GaussianChannel(scale=np.eye(2), shift=np.zeros(2), noise=np.eye(2))
    seq = ChannelSequence(limit, lambda n: term)
    grid = np.array([[2.0, 0.0], [0.0, -2.0], [2.0, 2.0], [-1.0, 2.0], [2.0, -2.0]])
    states = gaussian.default_gaussian_test_states(1)
    for st in states:
        assert np.all(char_fn(apply_gaussian(limit, st), grid) == 0.0)
        assert np.all(np.abs(char_fn(apply_gaussian(term, st), grid)) >= math.exp(-16.0))
    rep = param_convergence_check(seq, [1, 2], eps=1e-9, grid=grid)
    assert np.all(np.isfinite(rep.char_dev))
    assert np.allclose(rep.char_dev, _naive_char_devs(seq, [1, 2], states, grid), rtol=0, atol=1e-12)
    # The vacuum and the displaced vacuum at |z|^2 = 4: exp(-(1 + 1) 4 / 2).
    assert rep.char_dev == pytest.approx((math.exp(-4.0),) * 2, rel=1e-14)


def _recipe_channel(k, shift, noise_seed):
    """Acceptance-criterion-8 recipe: noise padded by the norm of the symplectic bracket."""
    s_in, s_out = k.shape[0] // 2, k.shape[1] // 2
    bracket = symplectic_form(s_out) - k.T @ symplectic_form(s_in) @ k
    pad = float(np.linalg.norm(bracket, 2))
    return GaussianChannel(scale=k, shift=shift, noise=noise_seed @ noise_seed.T + pad * np.eye(2 * s_out))


def _recipe_sequence(s_in, s_out, rng):
    k, dk = rng.standard_normal((2, 2 * s_in, 2 * s_out)) / np.sqrt(2 * s_in)
    shift, dl = rng.standard_normal((2, 2 * s_out))
    noise_seed = rng.standard_normal((2 * s_out, 2 * s_out))
    return ChannelSequence(
        _recipe_channel(k, shift, noise_seed),
        lambda n: _recipe_channel(k + dk / n, shift + dl / n, noise_seed),
    )


def _bench_style_sequence():
    k = np.array([0.4, 0.4, 0.6, 0.6])
    shift = np.array([0.3, -0.2, 0.1, 0.4])

    def channel(n):
        kn = k if n is None else k + 0.2 / n
        ln = shift if n is None else shift + 0.1 / n
        return GaussianChannel(np.diag(kn), ln, np.diag(1.0 - kn * kn + 0.1))

    return ChannelSequence(channel(None), channel)


def _evaluated_points(grid):
    """How many points the sweep evaluates: one of each +-z pair on a grid that is its own negation reversed."""
    grid = np.asarray(grid, dtype=float)
    return (len(grid) + 1) // 2 if np.array_equal(grid, -grid[::-1]) else len(grid)


def _block_size(states, grid):
    return max(1, sequences.SWEEP_BLOCK_ENTRIES // (len(states) * _evaluated_points(grid)))


#: How many indices a sweep covers, in blocks of ``block`` indices.
INDEX_COUNTS = {
    "one-index": lambda block: 1,
    "one-block": lambda block: block,
    "one-block-plus-one": lambda block: block + 1,
    "several-blocks": lambda block: 2 * block + 1,
}


_NAIVE_CASES = ["bench-style", "attenuator", "rect-2-to-1", "rect-1-to-3", "half-step-grid", "block-of-one"]


@pytest.mark.parametrize("case, count", [pytest.param(case, None, id=case) for case in _NAIVE_CASES] + [
    pytest.param(case, count, id=f"{case}-{count}") for case in _NAIVE_CASES for count in sorted(INDEX_COUNTS)
])
def test_param_convergence_check_matches_the_naive_loop(case, count, rng):
    """``count`` None sweeps indices 2..8; otherwise the sweep covers one of INDEX_COUNTS."""
    grid = None
    if case == "bench-style":
        seq, grid = _bench_style_sequence(), z_grid(2, max_points=81)
    elif case == "attenuator":
        seq = attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5)
    elif case == "rect-2-to-1":
        seq = _recipe_sequence(2, 1, rng)
    elif case == "rect-1-to-3":
        seq, grid = _recipe_sequence(1, 3, rng), _product_grid(np.arange(-1.0, 1.5, 1.0), 3, 200)
    elif case == "half-step-grid":
        # Off-integer points with dense covariances: the GEMM quadratic form rounds on its own.
        seq, grid = _recipe_sequence(2, 1, rng), _product_grid(np.arange(-2.0, 2.25, 0.5), 1, 625)
    else:
        # More values per index than one block holds: every block is a single index.
        seq = attenuator_sequence(lambda n: 0.3 + 0.5 / n, 0.3)
        grid = _product_grid(np.arange(-3.0, 3.05, 0.1), 1, 4000)
    swept_states = gaussian.default_gaussian_test_states(seq.limit.modes_in)
    swept_grid = grid if grid is not None else z_grid(seq.limit.modes_out)
    block = _block_size(swept_states, swept_grid)
    assert (block == 1) == (case == "block-of-one")
    ns = range(2, 9) if count is None else range(2, 2 + INDEX_COUNTS[count](block))
    rep = param_convergence_check(seq, ns, eps=1e-6, grid=grid)
    want = _naive_char_devs(seq, ns, swept_states, swept_grid)
    assert max(want) > 1e-3
    assert np.allclose(rep.char_dev, want, rtol=0, atol=1e-12)
    assert rep.test_family == f"{len(swept_states)} states x {len(swept_grid)} grid points"
    terms = [seq.term(n) for n in ns]
    for name, field in (("scale_dev", "scale"), ("shift_dev", "shift"), ("noise_dev", "noise")):
        want = [float(np.max(np.abs(getattr(ch, field) - getattr(seq.limit, field)))) for ch in terms]
        assert list(getattr(rep, name)) == want, name


def _shuffled_symmetric_grid():
    """z_grid(1)'s 25 points, each +-z pair kept, in an order that is not its own negation reversed."""
    grid = z_grid(1)
    return np.concatenate([grid[::2], grid[1::2]])


@pytest.mark.parametrize("grid, halved", [
    pytest.param(z_grid(1), True, id="z_grid-1"),
    pytest.param(z_grid(2), True, id="z_grid-2"),
    pytest.param(z_grid(3, max_points=5**6), True, id="z_grid-3-full"),
    pytest.param(z_grid(2, max_points=81), False, id="z_grid-2-81"),
    pytest.param(z_grid(1, max_points=16), False, id="z_grid-1-16"),
    pytest.param(_shuffled_symmetric_grid(), False, id="shuffled-symmetric"),
])
def test_param_convergence_check_halves_only_grids_that_are_their_own_negation_reversed(grid, halved, monkeypatch):
    evaluated = []
    real_point_outer = gaussian._point_outer

    def spy(points):
        evaluated.append(len(points))
        return real_point_outer(points)

    monkeypatch.setattr(gaussian, "_point_outer", spy)
    modes = grid.shape[1] // 2
    seq = _recipe_sequence(modes, modes, np.random.default_rng(modes))
    states = gaussian.default_gaussian_test_states(modes)
    rep = param_convergence_check(seq, range(1, 4), eps=1e-6, grid=grid)
    assert (_evaluated_points(grid) < len(grid)) == halved
    assert evaluated == [(len(grid) + 1) // 2 if halved else len(grid)]
    assert rep.test_family == f"{len(states)} states x {len(grid)} grid points"
    assert np.allclose(rep.char_dev, _naive_char_devs(seq, range(1, 4), states, grid), rtol=0, atol=1e-12)


@pytest.mark.parametrize("eps", [True, "1e-6", None, float("nan"), float("inf"), float("-inf")])
def test_param_convergence_check_rejects_an_eps_that_is_not_a_finite_real_before_any_term_is_built(eps):
    def unbuildable(n):
        raise AssertionError(f"term {n} was built")

    seq = ChannelSequence(attenuator(0.5), unbuildable)
    with pytest.raises(ValidationError, match="eps must be a finite real number, got "):
        param_convergence_check(seq, [1, 2], eps=eps)


def test_param_convergence_check_keeps_a_numpy_eps_as_its_float():
    seq = attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5)
    plain = param_convergence_check(seq, [10, 1000, 10**7], eps=1e-6)
    assert param_convergence_check(seq, [10, 1000, 10**7], eps=np.float64(1e-6)).to_json_dict() == plain.to_json_dict()
    assert plain.within_eps == (False, False, True)


def _cp_message(ch):
    """The error apply_gaussian raises for a channel that violates complete positivity."""
    with pytest.raises(ValidationError) as info:
        apply_gaussian(ch, vacuum(ch.modes_in))
    assert str(info.value).startswith("channel parameters violate complete positivity (min eigenvalue ")
    return str(info.value)


def test_param_convergence_check_rejects_invalid_terms_like_apply_gaussian():
    bad = GaussianChannel(scale=2.0 * np.eye(2), shift=np.zeros(2), noise=np.zeros((2, 2)))
    seq = ChannelSequence(attenuator(0.5), lambda n: bad if n == 3 else attenuator(0.5))
    with pytest.raises(ValidationError) as swept:
        param_convergence_check(seq, [1, 2, 3], eps=1e-9)
    assert str(swept.value) == _cp_message(bad)

    with pytest.raises(ValidationError) as limit:
        param_convergence_check(ChannelSequence(bad, lambda n: attenuator(0.5)), [1], eps=1e-9)
    assert str(limit.value) == _cp_message(bad)


def _bad_bench_term(n):
    """A 2-mode term violating complete positivity by an n-dependent margin, so the message names n."""
    return GaussianChannel(scale=(1.5 + n / 10) * np.eye(4), shift=np.zeros(4), noise=np.zeros((4, 4)))


def _sweep_with_bad_terms(bad):
    good = _bench_style_sequence()
    return ChannelSequence(good.limit, lambda n: _bad_bench_term(n) if n in bad else good.term(n))


@pytest.mark.parametrize("where", ["first-of-block", "middle-of-block", "last-of-block",
                                   "across-a-boundary", "twice-in-a-block"])
def test_param_convergence_check_reports_the_first_invalid_term_of_a_block(where):
    states = gaussian.default_gaussian_test_states(2)
    block = _block_size(states, z_grid(2))
    assert block >= 3
    ns = range(1, 4 * block + 1)
    # Block b holds indices b*block + 1 ... (b + 1)*block; put the bad terms in block 1.
    first, last = block + 1, 2 * block
    bad = {
        "first-of-block": {first},
        "middle-of-block": {first + 1},
        "last-of-block": {last},
        "across-a-boundary": {last, last + 1},
        "twice-in-a-block": {first + 1, last},
    }[where]
    with pytest.raises(ValidationError) as swept:
        param_convergence_check(_sweep_with_bad_terms(bad), ns, eps=1e-6)
    assert str(swept.value) == _cp_message(_bad_bench_term(min(bad)))


@pytest.mark.parametrize("max_points", [625, 81], ids=["halved-grid", "whole-grid"])
def test_param_convergence_check_keeps_its_other_errors_and_their_order(max_points):
    states = gaussian.default_gaussian_test_states(2)
    grid = z_grid(2, max_points=max_points)
    block = _block_size(states, grid)
    ns = range(1, 3 * block + 1)

    def unbuildable(n):
        raise ValidationError(f"term {n} cannot be built")

    # An invalid limit fails before any term is built.
    bad_limit = ChannelSequence(_bad_bench_term(0), unbuildable)
    with pytest.raises(ValidationError) as limit:
        param_convergence_check(bad_limit, ns, eps=1e-6, grid=grid)
    assert str(limit.value) == _cp_message(_bad_bench_term(0))

    with pytest.raises(ValidationError, match="a report needs at least one row"):
        param_convergence_check(_bench_style_sequence(), [], eps=1e-6, grid=grid)

    # A signature mismatch comes from ChannelSequence.term, unchanged.
    good = _bench_style_sequence()
    mismatched = ChannelSequence(good.limit, lambda n: attenuator(0.5) if n == block + 2 else good.term(n))
    with pytest.raises(ValidationError) as direct:
        mismatched.term(block + 2)
    with pytest.raises(ValidationError) as swept:
        param_convergence_check(mismatched, ns, eps=1e-6, grid=grid)
    assert str(swept.value) == str(direct.value)

    # In different blocks, the earlier complete-positivity failure wins ...
    def cp_then_build(build_at):
        return ChannelSequence(
            good.limit,
            lambda n: _bad_bench_term(n) if n == 2 else unbuildable(n) if n == build_at else good.term(n),
        )

    with pytest.raises(ValidationError) as across:
        param_convergence_check(cp_then_build(block + 1), ns, eps=1e-6, grid=grid)
    assert str(across.value) == _cp_message(_bad_bench_term(2))
    # ... but within one block every term is built before any is checked, so the build error wins.
    with pytest.raises(ValidationError, match=f"term {block} cannot be built"):
        param_convergence_check(cp_then_build(block), ns, eps=1e-6, grid=grid)


def test_param_convergence_report_does_not_depend_on_the_block_size(monkeypatch):
    """The Kraus sweeps' block rule drives the Gaussian sweep: blocks of 1, 3 and all indices agree."""
    seq, grid = _bench_style_sequence(), z_grid(2, max_points=81)
    states = gaussian.default_gaussian_test_states(2)
    ns = list(range(1, 11))

    def sweep(indices_per_block):
        monkeypatch.setattr(sequences, "SWEEP_BLOCK_ENTRIES", indices_per_block * len(states) * len(grid))
        assert _block_size(states, grid) == indices_per_block
        return param_convergence_check(seq, ns, eps=1e-3, grid=grid).to_json_dict()

    default = sweep(len(ns))
    assert max(default["char_dev"]) > 1e-3
    assert sweep(1) == default
    assert sweep(3) == default


def test_param_convergence_check_memory_does_not_grow_with_the_index_count():
    seq, grid = _bench_style_sequence(), z_grid(2)
    states = gaussian.default_gaussian_test_states(2)
    ns = range(1, 2001)
    assert len(ns) * len(states) * len(grid) * 16 >= 60e6  # what one unblocked array would take
    tracemalloc.start()
    try:
        rep = param_convergence_check(seq, ns, eps=1e-6, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.indices) == 2000
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_param_convergence_check_rejects_empty_or_misshapen_probe_families():
    seq = attenuator_sequence(lambda n: 0.5 + 0.1 / n, 0.5)
    for grid in (np.zeros((0, 2)), np.zeros((5, 4)), np.zeros(2), np.zeros((2, 2, 1))):
        with pytest.raises(ValidationError, match="grid of shape"):
            param_convergence_check(seq, [1, 2], eps=1.0, grid=grid)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_param_convergence_check_rejects_a_non_finite_grid_before_any_term_is_built(bad):
    def unbuildable(n):
        raise AssertionError(f"term {n} was built")

    seq = ChannelSequence(attenuator(0.5), unbuildable)
    with pytest.raises(ValidationError, match="^grid contains non-finite entries$"):
        param_convergence_check(seq, [1, 2], eps=1.0, grid=[[0.0, 1.0], [bad, 0.0]])


def test_param_convergence_check_rejects_a_non_numeric_grid_before_any_term_is_built():
    def unbuildable(n):
        raise AssertionError(f"term {n} was built")

    seq = ChannelSequence(attenuator(0.5), unbuildable)
    with pytest.raises(ValidationError, match="^grid is not numeric: "):
        param_convergence_check(seq, [1, 2], eps=1.0, grid=[[0.0, 1.0], ["a", 0.0]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_phase_space_point_is_rejected(bad):
    message = "^phase-space point contains non-finite entries$"
    with pytest.raises(ValidationError, match=message):
        char_fn(vacuum(), [bad, 0.0])
    with pytest.raises(ValidationError, match=message):
        char_fn(vacuum(), [[0.0, 0.0], [0.0, bad]])
    with pytest.raises(ValidationError, match=message):
        dual_weyl_symbol(attenuator(0.5), [bad, 0.0])


def test_gaussian_report_round_trip_and_csv(tmp_path):
    seq = attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5)
    rep = param_convergence_check(seq, [2, 3], eps=1e-6)
    path = tmp_path / "gauss.json"
    rep.write_json(path)
    loaded = from_json_dict(json.loads(path.read_text()))
    assert loaded.indices == rep.indices
    assert loaded.char_dev == rep.char_dev
    assert loaded.eps == rep.eps

    csv_path = tmp_path / "gauss.csv"
    rep.write_csv(csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "n,scale_dev,shift_dev,noise_dev,char_dev,within_eps"


def test_random_valid_pairs_propagate_validity(rng):
    for _ in range(25):
        s_in = int(rng.integers(1, 4))
        s_out = int(rng.integers(1, 4))
        ch = _random_valid_channel(s_in, s_out, rng)
        st = _random_valid_state(s_in, rng)
        assert validate_channel(ch).ok
        assert validate_state(st).ok
        assert validate_state(apply_gaussian(ch, st)).ok


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_gaussian_report_rejects_non_finite_deviations(bad):
    names = ("scale_dev", "shift_dev", "noise_dev", "char_dev")
    for name in names:
        cols = {other: (0.1,) for other in names}
        cols[name] = (bad,)
        with pytest.raises(ValidationError, match=f"{name} has non-finite"):
            Report("gaussian-convergence-report", indices=(1,), eps=1e-6, within_eps=(False,), **cols)


def test_dual_weyl_symbol_rejects_a_point_of_the_wrong_shape():
    with pytest.raises(ValidationError, match=r"argument of shape \(3,\) does not match 1 output modes"):
        dual_weyl_symbol(attenuator(0.5), np.zeros(3))


def test_z_grid_needs_a_mode():
    with pytest.raises(ValidationError, match="mode count must be positive, got 0"):
        z_grid(0)
