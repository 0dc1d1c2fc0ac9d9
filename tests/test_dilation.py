import numpy as np
import pytest

from channel_lab import ensembles
from channel_lab.core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    UnitaryOp,
    ValidationError,
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
    tensor,
    _fix_phase,
)
from channel_lab.dilation import (
    UnitaryDilation,
    complementary_kraus,
    complete_unitary,
    isometry_from_kraus,
    kraus_from_isometry,
    minimal_stinespring,
    pad_environment,
    purify,
    stinespring_from_unitary,
    stinespring_span_rank,
    tracked_basis_extension,
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


def _loop_minimal_stinespring(ch, cutoff=1e-10):
    vals, vecs = ordered_eigh(choi_matrix(ch))
    ops = []
    for k in range(len(vals)):
        if vals[k] > cutoff:
            ops.append(np.sqrt(vals[k]) * vecs[:, k].reshape(ch.d_out, ch.d_in))
    return isometry_from_kraus(KrausChannel(tuple(ops)))


def test_minimal_stinespring_environment_equals_choi_rank(rng):
    cases = [
        (identity_channel(2), 1),
        (dephasing_channel(0.0), 2),
        (dephasing_channel(0.3), 2),
        (depolarizing_qubit_channel(), 4),
        (ensembles.random_kraus_channel(3, 2, 4, rng), 4),
        (ensembles.random_kraus_channel(2, 4, 2, rng), 2),
    ]
    for ch, rank in cases:
        v = minimal_stinespring(ch)
        assert v.d_env == rank
        assert max_action_deviation(ch, kraus_from_isometry(v)) < 1e-12
        # the same elementwise products as the eigenvector-by-eigenvector loop
        assert np.array_equal(v.v, _loop_minimal_stinespring(ch).v)


def test_minimal_stinespring_compresses_redundant_families(rng):
    # duplicate Kraus operators inflate the environment, the minimal form removes it
    ch = ensembles.random_kraus_channel(2, 2, 2, rng)
    fat = KrausChannel(tuple(a / np.sqrt(2.0) for a in ch.kraus_ops) * 2)
    v = minimal_stinespring(fat)
    assert v.d_env <= 4
    assert max_action_deviation(fat, kraus_from_isometry(v)) < 1e-10


def test_span_rank_detects_minimality():
    ident = identity_channel(2)
    dup = KrausChannel((np.eye(2) / np.sqrt(2.0), np.eye(2) / np.sqrt(2.0)))
    v_min = minimal_stinespring(ident)
    v_fat = isometry_from_kraus(dup)
    assert stinespring_span_rank(v_min) == v_min.d_out * v_min.d_env
    assert stinespring_span_rank(v_fat) == 2 < v_fat.d_out * v_fat.d_env
    assert stinespring_span_rank(v_fat) == _kronecker_span_rank(v_fat)


def _kronecker_span_rank(v, rel_tol=1e-8):
    """The span rank from its definition: all (|i><j| (x) I) V stacked side by side."""
    cols = []
    for i in range(v.d_out):
        for j in range(v.d_out):
            unit = np.zeros((v.d_out, v.d_out), dtype=np.complex128)
            unit[i, j] = 1.0
            cols.append(tensor(unit, np.eye(v.d_env)) @ v.v)
    svals = np.linalg.svd(np.hstack(cols), compute_uv=False)
    return int(np.sum(svals > rel_tol * svals[0]))


@pytest.mark.parametrize("d_in,d_out,n_ops,pad", [(2, 2, 3, 0), (3, 2, 2, 3), (2, 3, 4, 2), (4, 1, 5, 1)])
def test_span_rank_matches_the_kronecker_construction(d_in, d_out, n_ops, pad, rng):
    ch = ensembles.random_kraus_channel(d_in, d_out, n_ops, rng)
    v = pad_environment(isometry_from_kraus(ch), n_ops + pad)
    v_min = minimal_stinespring(ch)
    for iso in (v, v_min):
        assert stinespring_span_rank(iso) == _kronecker_span_rank(iso)
    assert stinespring_span_rank(v_min) == v_min.d_out * v_min.d_env
    assert stinespring_span_rank(v) <= d_out * n_ops


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
    big = CNOT @ tensor(rho.matrix, np.outer(tau, tau.conj())) @ dagger(CNOT)
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
        tracked_basis_extension([w, other], complete_unitary(w))
    wrong_ref = UnitaryOp(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="does not complete"):
        tracked_basis_extension([w], wrong_ref)
    with pytest.raises(ValidationError, match="at least one"):
        tracked_basis_extension([], complete_unitary(w))


def test_tracked_extension_structure(rng):
    w_seq = [ensembles.random_partial_isometry(5, 3, rng)]
    p = w_seq[0].initial_projector
    # build companions sharing the initial projector by rotating the range
    for theta in (0.3, 0.1):
        q = np.eye(5, dtype=np.complex128)
        q[:2, :2] = _rotation(theta)
        w_seq.append(PartialIsometry(q @ w_seq[0].w))
    tracked = tracked_basis_extension(w_seq, complete_unitary(w_seq[0]))
    assert len(tracked.extensions) == 3
    assert len(tracked.reference_basis) == 2
