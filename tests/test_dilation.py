import tracemalloc

import numpy as np
import pytest

from channel_lab import ensembles
from channel_lab.core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    UnitaryOp,
    ValidationError,
    amplitude_damping_channel,
    channel_action,
    choi_matrix,
    dagger,
    dephasing_channel,
    identity_channel,
    depolarizing_qubit_channel,
    max_action_deviation,
    opnorm,
    ordered_eigh,
    partial_trace,
    replacement_channel,
    _fix_phase,
)
from channel_lab.dilation import (
    CHOI_RANK_CUTOFF,
    UnitaryDilation,
    complementary_kraus,
    complete_unitary,
    isometry_from_kraus,
    kraus_from_isometry,
    minimal_stinespring,
    pad_environment,
    purify,
    stinespring_from_unitary,
    to_kraus,
    tracked_complete_unitary,
    unitary_from_isometry,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def test_isometry_of_full_dephasing_is_the_known_matrix():
    v = isometry_from_kraus(dephasing_channel(0.0))
    want = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=np.complex128)
    assert np.array_equal(v.v, want)
    assert (v.d_out, v.d_env) == (2, 2)


def test_kraus_isometry_round_trip_is_exact(rng):
    ch = ensembles.random_kraus_channel(3, 4, 3, rng)
    back = kraus_from_isometry(isometry_from_kraus(ch))
    assert len(back.kraus_ops) == len(ch.kraus_ops)
    for a, b in zip(ch.kraus_ops, back.kraus_ops):
        assert np.array_equal(a, b)


def _choi_minimal_stinespring(ch):
    """The oracle: Kraus operators read off the Choi matrix's eigenpairs, one by one."""
    vals, vecs = ordered_eigh(choi_matrix(ch))
    ops = []
    for k in range(len(vals)):
        if vals[k] > CHOI_RANK_CUTOFF:
            ops.append(np.sqrt(vals[k]) * vecs[:, k].reshape(ch.d_out, ch.d_in))
    return isometry_from_kraus(KrausChannel(tuple(ops)))


def _kept_span(v):
    """The projector onto the span of an isometry's Kraus vectors ``vec(A_k)``."""
    m = kraus_from_isometry(v).stack.reshape(v.d_env, -1)
    q, _ = np.linalg.qr(m.T)
    return q @ dagger(q)


def test_minimal_stinespring_environment_equals_choi_rank(rng):
    # every kept Choi eigenvalue is simple, so the Kraus operators are unique up to
    # phase, and the phase and order conventions make them agree with the oracle
    cases = [
        (identity_channel(2), 1),
        (dephasing_channel(0.3), 2),
        (amplitude_damping_channel(0.4), 2),
        (ensembles.random_kraus_channel(3, 2, 4, rng), 4),
        (ensembles.random_kraus_channel(2, 4, 2, rng), 2),
        (ensembles.random_kraus_channel(2, 2, 7, rng), 4),  # K > d_out * d_in
    ]
    for ch, rank in cases:
        v = minimal_stinespring(ch)
        oracle = _choi_minimal_stinespring(ch)
        assert v.d_env == oracle.d_env == rank
        assert max_action_deviation(ch, kraus_from_isometry(v)) < 1e-12
        assert np.abs(v.v - oracle.v).max() < 1e-12


def _tied_channel(rng):
    """Weights (0.4, 0.4, 0.2) on three Hilbert-Schmidt orthogonal qutrit unitaries,
    rotated on both sides: Choi eigenvalues 1.2, 1.2 and 0.6 in a generic basis."""
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    left, right = ensembles.random_unitary(3, rng), ensembles.random_unitary(3, rng)
    ops = [np.sqrt(p) * left @ u @ right for p, u in [(0.4, shift), (0.4, clock), (0.2, np.eye(3))]]
    return KrausChannel(tuple(ops))


def test_minimal_stinespring_on_tied_spectra_keeps_the_choi_matrix_and_span(rng):
    # Tied eigenvalues leave the basis of their eigenspace open, so only the Choi
    # matrix, the kept span and the environment dimension are compared, and the
    # output must still be reproducible.  identity_channel(3) ties only in the
    # discarded, 8-fold zero eigenvalue.
    cases = [
        (depolarizing_qubit_channel(), 4),
        (dephasing_channel(0.0), 2),
        (identity_channel(3), 1),
        (_tied_channel(rng), 3),
    ]
    vals = np.linalg.eigvalsh(choi_matrix(cases[-1][0]))
    assert np.allclose(vals[-3:], [0.6, 1.2, 1.2], atol=1e-12)
    for ch, rank in cases:
        v = minimal_stinespring(ch)
        oracle = _choi_minimal_stinespring(ch)
        assert v.d_env == oracle.d_env == rank
        assert np.abs(choi_matrix(kraus_from_isometry(v)) - choi_matrix(ch)).max() < 1e-12
        assert np.abs(_kept_span(v) - _kept_span(oracle)).max() < 1e-12
        assert minimal_stinespring(ch).v.tobytes() == v.v.tobytes()
        assert minimal_stinespring(KrausChannel(ch.stack.copy())).v.tobytes() == v.v.tobytes()


def test_minimal_stinespring_never_builds_the_choi_matrix(rng):
    ch = ensembles.random_kraus_channel(32, 32, 4, rng)
    assert (ch.d_out * ch.d_in) ** 2 * 16 > 16e6  # bytes of the Choi matrix alone
    tracemalloc.start()
    try:
        v = minimal_stinespring(ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.d_env == 4
    assert peak < 1e6, f"peak {peak / 1e6:.2f} MB"


def test_minimal_stinespring_compresses_redundant_families(rng):
    # duplicate Kraus operators inflate the environment, the minimal form removes it
    ch = ensembles.random_kraus_channel(2, 2, 2, rng)
    fat = KrausChannel(tuple(a / np.sqrt(2.0) for a in ch.kraus_ops) * 2)
    v = minimal_stinespring(fat)
    assert v.d_env <= 4
    assert max_action_deviation(fat, kraus_from_isometry(v)) < 1e-10


def test_pad_environment_preserves_action_and_rejects_shrinking(rng):
    ch = ensembles.random_kraus_channel(2, 3, 2, rng)
    v = isometry_from_kraus(ch)
    padded = pad_environment(v, 5)
    assert padded.d_env == 5
    assert max_action_deviation(ch, kraus_from_isometry(padded)) < 1e-12
    with pytest.raises(ValidationError, match="cannot shrink"):
        pad_environment(v, 1)


def test_complementary_output_spectrum_is_representation_independent(rng):
    """Different dilations of one channel give complementary outputs with one spectrum."""
    ch = ensembles.random_kraus_channel(3, 3, 2, rng)
    rho = ensembles.random_density(3, rng)
    reps = [minimal_stinespring(ch), isometry_from_kraus(ch), pad_environment(isometry_from_kraus(ch), 4)]
    spectra = []
    for v in reps:
        out = channel_action(complementary_kraus(v), rho.matrix)
        vals = np.linalg.eigvalsh(out)
        spectra.append(np.sort(vals[vals > 1e-10]))
    for s in spectra[1:]:
        assert np.allclose(s, spectra[0], atol=1e-10)


def test_complementary_kraus_agrees_with_partial_trace(rng):
    ch = ensembles.random_kraus_channel(2, 3, 2, rng)
    v = isometry_from_kraus(ch)
    rho = ensembles.random_density(2, rng)
    big = v.v @ rho.matrix @ dagger(v.v)
    want = partial_trace(big, "B", v.d_out, v.d_env)
    got = channel_action(complementary_kraus(v), rho.matrix)
    assert np.allclose(got, want, atol=1e-13)


def test_cnot_dilation_dephases_by_the_ancilla_overlap():
    # ancilla (cos t, sin t) leaves off-diagonals multiplied by 2 sin t cos t
    tau = np.array([np.cos(np.pi / 12), np.sin(np.pi / 12)], dtype=np.complex128)
    dil = UnitaryDilation(UnitaryOp(CNOT), tau, d_in=2, d_anc=2, d_out=2, d_env=2)
    ch = kraus_from_isometry(stinespring_from_unitary(dil))
    assert max_action_deviation(ch, dephasing_channel(np.sin(np.pi / 6))) < 1e-12
    # brute-force oracle: conjugate rho (x) tau by the 4x4 unitary, trace the ancilla
    rho = ensembles.random_density(2, np.random.default_rng(5))
    big = CNOT @ np.kron(rho.matrix, np.outer(tau, tau.conj())) @ dagger(CNOT)
    want = partial_trace(big, "E", 2, 2)
    assert np.allclose(channel_action(ch, rho.matrix), want, atol=1e-13)


def test_swap_dilation_is_state_replacement():
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    dil = UnitaryDilation(UnitaryOp(SWAP), e0, d_in=2, d_anc=2, d_out=2, d_env=2)
    ch = kraus_from_isometry(stinespring_from_unitary(dil))
    target = replacement_channel(DensityOperator(np.diag([1.0, 0.0])), 2)
    assert max_action_deviation(ch, target) < 1e-14


def test_unitary_dilation_validation():
    with pytest.raises(ValidationError, match="products disagree"):
        UnitaryDilation(UnitaryOp(np.eye(4)), np.array([1.0, 0.0]), 2, 2, 3, 2)
    with pytest.raises(ValidationError, match="norm"):
        UnitaryDilation(UnitaryOp(np.eye(4)), np.array([1.0, 1.0]), 2, 2, 2, 2)


def test_unitary_from_isometry_matches_on_the_embedded_subspace(rng):
    ch = ensembles.random_kraus_channel(3, 2, 2, rng)
    v = isometry_from_kraus(ch)
    dil = unitary_from_isometry(v)
    embed = np.kron(np.eye(3), dil.tau0.reshape(-1, 1))
    chi0 = np.zeros(3, dtype=np.complex128); chi0[0] = 1.0
    lift = np.kron(v.v, chi0.reshape(-1, 1))
    assert opnorm(dil.u.u @ embed - lift) < 1e-12
    round_trip = kraus_from_isometry(stinespring_from_unitary(dil))
    assert max_action_deviation(ch, round_trip) < 1e-10


def test_unitary_from_isometry_dimension_flexibility(rng):
    v = isometry_from_kraus(identity_channel(2))
    # d_in * d_anc must equal d_out * d_env * d_extra
    dil = unitary_from_isometry(v, d_anc=3, d_extra=3)
    assert dil.u.dim == 6
    with pytest.raises(ValidationError, match="products disagree"):
        unitary_from_isometry(v, d_anc=3, d_extra=2)
    tau = np.array([0.6, 0.8], dtype=np.complex128)
    custom = unitary_from_isometry(v, d_anc=2, d_extra=2, tau0=tau)
    assert np.allclose(custom.tau0, tau)


def test_unitary_from_isometry_eigensolves_only_the_factors(monkeypatch, rng):
    # The completion diagonalizes tau_0 tau_0* and V V*, never a projector on the
    # d_in * d_anc dilation space.
    sizes = []
    eigh = np.linalg.eigh

    def spy(h):
        sizes.append(len(h))
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    tau = ensembles.haar_vector(4, rng)
    cases = [
        (isometry_from_kraus(ensembles.random_kraus_channel(3, 2, 2, rng)), {}),
        (isometry_from_kraus(ensembles.random_kraus_channel(2, 2, 2, rng)), {"d_anc": 4, "d_extra": 2, "tau0": tau}),
        (isometry_from_kraus(ensembles.random_kraus_channel(4, 3, 2, rng)), {"d_anc": 6, "d_extra": 4}),
    ]
    for v, kwargs in cases:
        sizes.clear()
        dil = unitary_from_isometry(v, **kwargs)
        assert sizes and max(sizes) <= max(dil.d_anc, v.d_out * v.d_env)

    # A scaled case: d = 8 with 8 Kraus operators completes on dimension 512.
    sizes.clear()
    v = isometry_from_kraus(ensembles.random_kraus_channel(8, 8, 8, rng))
    u = unitary_from_isometry(v).u.u
    assert u.shape == (512, 512) and max(sizes) == 64
    assert opnorm(dagger(u) @ u - np.eye(512)) <= 1e-10


def _loop_purify(sigma, cutoff=1e-12):
    vals, vecs = ordered_eigh(sigma.matrix)
    keep = [k for k in range(len(vals)) if vals[k] > cutoff]
    out = np.zeros(sigma.dim * len(keep), dtype=np.complex128)
    for pos, k in enumerate(keep):
        e = np.zeros(len(keep), dtype=np.complex128)
        e[pos] = 1.0
        out += np.sqrt(vals[k]) * np.kron(vecs[:, k], e)
    return _fix_phase(out)


def test_purify_matches_the_eigenvector_loop(rng):
    states = [
        ensembles.random_density(4, rng),
        ensembles.random_density(5, rng, rank=2),
        ensembles.random_pure_density(3, rng),
        DensityOperator(np.diag([0.5, 0.0, 0.5])),
    ]
    for sigma in states:
        got, want = purify(sigma), _loop_purify(sigma)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_purify_known_mixture():
    vec = purify(DensityOperator(np.diag([0.75, 0.25])))
    want = np.array([0.0, np.sqrt(0.75), 0.5, 0.0])
    assert np.allclose(vec, want, atol=1e-14)


def test_purify_recovers_state_and_tracks_perturbations(rng):
    sigma = ensembles.random_density(3, rng)
    vec = purify(sigma)
    rank = vec.size // 3
    rho = np.outer(vec, vec.conj())
    assert np.allclose(partial_trace(rho, "E", 3, rank), sigma.matrix, atol=1e-11)
    # nondegenerate spectra keep the construction continuous
    base = DensityOperator(np.diag([0.7, 0.3]))
    moved = DensityOperator(np.diag([0.7 + 1e-6, 0.3 - 1e-6]))
    assert np.linalg.norm(purify(base) - purify(moved)) < 1e-4


def test_complete_unitary_hand_cases():
    u = complete_unitary(PartialIsometry(np.diag([1.0, 0.0])))
    assert np.allclose(u.u, np.eye(2), atol=1e-14)
    w = np.zeros((2, 2)); w[1, 0] = 1.0
    x = complete_unitary(PartialIsometry(w))
    assert np.allclose(x.u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_complete_unitary_identities_on_random_inputs(rng):
    for dim, rank in ((4, 2), (6, 3), (8, 5)):
        w = ensembles.random_partial_isometry(dim, rank, rng)
        u = complete_unitary(w)
        assert opnorm(u.u @ w.initial_projector - w.w) < 1e-10


def test_complete_unitary_needs_square_input():
    with pytest.raises(ValidationError, match="square"):
        complete_unitary(PartialIsometry(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def test_tracked_completion_reproduces_reference_for_constant_families():
    w = PartialIsometry(_rotation(0.4) @ np.diag([1.0, 0.0]))
    ref = complete_unitary(w)
    out = tracked_complete_unitary([w, w, w], ref)
    for u in out:
        assert opnorm(u.u - ref.u) < 1e-12


def test_tracked_completion_of_converging_rotations_has_closed_form():
    """Plane rotations by 1/n: the tracked unitaries approach diag(1, -1)
    with operator distance exactly 2 sin(1/(2n))."""
    p = np.diag([1.0, 0.0]).astype(np.complex128)
    w_seq = [PartialIsometry(_rotation(1.0 / n) @ p) for n in range(1, 101)]
    ref = complete_unitary(w_seq[0])
    us = tracked_complete_unitary(w_seq, ref)
    limit = np.diag([1.0, -1.0])
    for n in (1, 2, 10, 100):
        got = opnorm(us[n - 1].u - limit)
        assert got == pytest.approx(2.0 * np.sin(0.5 / n), abs=1e-12)


def test_tracked_completion_swap_family_cannot_converge():
    """The swap family converges strongly, yet every tracked completion
    stays a fixed sqrt(2) away from the reference on the witness vector."""
    from channel_lab.sequences import swap_counterexample

    terms, psi = swap_counterexample(6)
    ref = complete_unitary(terms[0])
    us = tracked_complete_unitary(terms, ref)
    assert np.linalg.norm((us[0].u - ref.u) @ psi) < 1e-14
    for u in us[1:]:
        assert np.linalg.norm((u.u - ref.u) @ psi) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_tracked_completion_validates_inputs():
    w = PartialIsometry(np.diag([1.0, 0.0]))
    other = PartialIsometry(np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError, match="different initial projector"):
        tracked_complete_unitary([w, other], complete_unitary(w))
    # Only the second of three terms drifts, and the message names it.
    with pytest.raises(ValidationError, match="term 1 has a different initial projector"):
        tracked_complete_unitary([w, other, w], complete_unitary(w))
    with pytest.raises(ValidationError, match="square partial isometries of one dimension"):
        tracked_complete_unitary([w, PartialIsometry(np.eye(3))], complete_unitary(w))
    wrong_ref = UnitaryOp(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="does not complete"):
        tracked_complete_unitary([w], wrong_ref)
    with pytest.raises(ValidationError, match="at least one"):
        tracked_complete_unitary([], complete_unitary(w))


def _loop_tracked_unitaries(w_seq, reference, degenerate_tol=1e-8):
    """Tracked completions with per-vector tuples and np.outer sums, as before arrays."""

    def kernel_basis(projector):
        vals, vecs = ordered_eigh(projector)
        return vecs[:, vals < 0.5]

    kernel = kernel_basis(w_seq[0].initial_projector)
    ref_basis = [reference.u @ kernel[:, j] for j in range(kernel.shape[1])]
    out = []
    for w in w_seq:
        grown = w.range_projector.copy()
        u = w.w.copy()
        for j, target in enumerate(ref_basis):
            candidate = target - grown @ target
            norm = np.linalg.norm(candidate)
            vec = candidate / norm if norm > degenerate_tol else kernel_basis(grown)[:, 0]
            grown = grown + np.outer(vec, vec.conj())
            u += np.outer(vec, kernel[:, j].conj())
        out.append(u)
    return out


def test_tracked_completion_matches_the_outer_product_loop(rng):
    from channel_lab.sequences import swap_counterexample

    # Both exact families fall back to a kernel vector of the grown range for some
    # terms and not for others of the same batch.  In the 4-dim one the reference
    # vectors are e_3, e_2, e_1: the e_1-range term falls back once, the e_3-range
    # term three times in a row, and the terms around them never.
    e = np.eye(4)
    families = [
        swap_counterexample(7)[0],
        [PartialIsometry(np.outer(x, e[0])) for x in (e[0], e[1], e[3], (e[0] + e[2]) / np.sqrt(2))],
    ]
    for dim, rank in ((4, 1), (6, 3), (8, 5)):
        w0 = ensembles.random_partial_isometry(dim, rank, rng)
        moved = [PartialIsometry(ensembles.random_unitary(dim, rng) @ w0.w) for _ in range(4)]
        families.append([w0] + moved)
    for w_seq in families:
        ref = complete_unitary(w_seq[0])
        got = tracked_complete_unitary(w_seq, ref)
        want = _loop_tracked_unitaries(w_seq, ref)
        assert len(got) == len(want)
        for u, v in zip(got, want):
            assert np.abs(u.u - v).max() <= 1e-12


def test_tracked_completion_of_unitaries_is_the_family_itself(rng):
    w_seq = [PartialIsometry(ensembles.random_unitary(4, rng)) for _ in range(3)]
    ref = UnitaryOp(w_seq[0].w)
    us = tracked_complete_unitary(w_seq, ref)
    assert len(us) == 3
    for u, w in zip(us, w_seq):
        assert np.array_equal(u.u, w.w)


def test_to_kraus_reads_every_channel_representation(rng):
    from channel_lab.gaussian import vacuum

    ch = ensembles.random_kraus_channel(2, 3, 2, rng)
    iso = isometry_from_kraus(ch)
    dil = unitary_from_isometry(iso)
    assert to_kraus(ch) is ch
    assert np.array_equal(to_kraus(iso).stack, ch.stack)
    assert np.array_equal(to_kraus(dil).stack, kraus_from_isometry(stinespring_from_unitary(dil)).stack)
    assert max_action_deviation(to_kraus(dil), ch) < 1e-12
    with pytest.raises(ValidationError, match="GaussianState is not a channel representation"):
        to_kraus(vacuum(1))


def test_ancilla_vector_of_the_wrong_shape_is_rejected():
    iso = isometry_from_kraus(amplitude_damping_channel(0.3))
    with pytest.raises(ValidationError, match=r"ancilla vector of shape \(2,\) does not live in dim 4"):
        unitary_from_isometry(iso, tau0=np.array([1.0, 0.0]))


def test_tracked_completion_rejects_a_reference_of_another_dimension():
    w = PartialIsometry(np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError, match="reference of dim 3 does not act on dim 2"):
        tracked_complete_unitary([w, w], UnitaryOp(np.eye(3)))
