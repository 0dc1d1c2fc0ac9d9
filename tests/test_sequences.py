import json
import re
import tracemalloc

import numpy as np
import pytest

from channel_lab import ensembles, sequences
from channel_lab.core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    UnitaryOp,
    ValidationError,
    channel_action,
    choi_matrix,
    dual_action,
    identity_channel,
    max_action_deviation,
    ordered_eigh,
    trace_norm,
)
from channel_lab.dilation import kraus_from_isometry
from channel_lab.ensembles import Probes
from channel_lab.gaussian import attenuator, param_convergence_check
from channel_lab.report import Report, from_json_dict
from channel_lab.sequences import (
    ChannelSequence,
    PartialTraceForm,
    choi_defect,
    choi_defects,
    complementary_sequence,
    compose_sequence,
    compression_sequence,
    convergence_report,
    givens_rotation,
    rotation_partial_trace_form,
    strong_defect,
    strongstar_defect,
    swap_counterexample,
    swap_report,
    tensor_sequence,
)


def _pair_sequence(limit, term):
    """A two-channel sequence: every index n >= 1 yields the same term."""
    return ChannelSequence(limit, lambda n: term)


def _mixed(dim):
    return DensityOperator(np.eye(dim) / dim)


def _pure(vecs):
    """The pure states of the rows of ``vecs``, as a stack, each row normalized as the default test states are."""
    return ensembles._projectors(np.asarray(vecs, dtype=np.complex128))


def test_sequence_term_checks(rng):
    ch = identity_channel(2)
    seq = ChannelSequence(ch, lambda n: ch)
    assert seq.term(0) is seq.limit
    with pytest.raises(ValidationError, match=">= 0"):
        seq.term(-1)
    bad = ChannelSequence(identity_channel(2), lambda n: identity_channel(3))
    with pytest.raises(ValidationError, match=r"\(3,3\)"):
        bad.term(1)


def test_constant_sequence_has_zero_defects(rng):
    ch = ensembles.random_kraus_channel(2, 3, 2, rng)
    seq = ChannelSequence(ch, lambda n: ch)
    states = ensembles.default_test_states(2, rng)
    obs = ensembles.matrix_unit_observables(3)
    vecs = ensembles.default_test_vectors(2, rng)
    assert strong_defect(seq, 3, states) < 1e-14
    assert strongstar_defect(seq, 3, obs, vecs) < 1e-14
    assert choi_defect(seq, 3) < 1e-14


def test_empty_test_families_are_rejected(rng):
    ch = identity_channel(2)
    seq = ChannelSequence(ch, lambda n: ch)
    with pytest.raises(ValidationError, match="test state"):
        strong_defect(seq, 1, [])
    with pytest.raises(ValidationError, match="test observable"):
        strongstar_defect(seq, 1, [], ensembles.default_test_vectors(2, rng))


@pytest.mark.parametrize("d_obs", [2, 4])
def test_observables_of_the_wrong_dimension_are_rejected(d_obs, rng):
    """d_obs^2 matrix units stack to an identity too, but not to the one of d_out = 3."""
    seq = compression_sequence(identity_channel(3), _mixed(3), [1, 2, 3])
    states, vecs = ensembles.default_test_states(3, rng), ensembles.default_test_vectors(3, rng)
    obs = ensembles.matrix_unit_observables(d_obs)
    message = re.escape(f"test observable family has a member of shape ({d_obs}, {d_obs}), the limit needs (3, 3)")
    with pytest.raises(ValidationError, match=message):
        convergence_report(seq, [1, 2], Probes(states, obs, vecs))
    with pytest.raises(ValidationError, match=message):
        strongstar_defect(seq, 1, obs, vecs)


def test_states_and_vectors_of_the_wrong_dimension_are_rejected(rng):
    # d_in = 2, d_out = 3: the states and vectors act on d_in, the observables on d_out
    seq = _pair_sequence(*(ensembles.random_kraus_channel(2, 3, 2, rng) for _ in range(2)))
    states, vecs = ensembles.default_test_states(2, rng), ensembles.default_test_vectors(2, rng)
    obs = ensembles.matrix_unit_observables(3)
    wrong_states = ensembles.default_test_states(3, rng)
    wrong_vecs = [*vecs, ensembles.default_test_vectors(3, rng)[0]]  # one wrong member is enough
    # a probe family is one stack, so all its members act on the wrong space
    all_wrong_vecs = ensembles.default_test_vectors(3, rng)
    state_message = re.escape("test state family has a member of shape (3, 3), the limit needs (2, 2)")
    vector_message = re.escape("test vector family has a member of shape (3,), the limit needs (2,)")
    with pytest.raises(ValidationError, match=state_message):
        convergence_report(seq, [1], Probes(wrong_states, obs, vecs))
    with pytest.raises(ValidationError, match=state_message):
        strong_defect(seq, 1, wrong_states)
    with pytest.raises(ValidationError, match=vector_message):
        convergence_report(seq, [1], Probes(states, obs, all_wrong_vecs))
    with pytest.raises(ValidationError, match=vector_message):
        strongstar_defect(seq, 1, obs, all_wrong_vecs)
    # a mixed list is not one stack, whichever defect reads it
    with pytest.raises(ValidationError, match=re.escape("test vector 4 has shape (3,), test vector 0 has (2,)")):
        strongstar_defect(seq, 1, obs, wrong_vecs)
    # the observables act on d_out, not on d_in
    with pytest.raises(ValidationError, match=re.escape("shape (2, 2), the limit needs (3, 3)")):
        convergence_report(seq, [1], Probes(states, ensembles.matrix_unit_observables(2), vecs))


def test_choi_defect_dominates_strong_at_maximally_mixed(rng):
    """Phi(I/d) is a partial trace of the Choi matrix over d, and partial
    traces cannot increase the trace norm."""
    for _ in range(10):
        a = ensembles.random_kraus_channel(3, 4, 2, rng)
        b = ensembles.random_kraus_channel(3, 4, 3, rng)
        seq = _pair_sequence(a, b)
        assert strong_defect(seq, 1, [_mixed(3).matrix]) <= choi_defect(seq, 1) + 1e-12


def test_phase_rotation_choi_defect_closed_form():
    for theta in (0.5, 0.05, 0.005):
        u = np.diag([1.0, np.exp(1j * theta)])
        seq = _pair_sequence(identity_channel(2), KrausChannel((u,)))
        want = 2.0 * abs(np.sin(theta / 2.0))
        assert choi_defect(seq, 1) == pytest.approx(want, abs=1e-12)
        # the plus state attains the same value on the strong side
        plus = _pure([[1.0, 1.0]])
        assert strong_defect(seq, 1, plus) == pytest.approx(want, abs=1e-12)


def test_compression_hand_expansion_on_identity_qubit():
    seq = compression_sequence(identity_channel(2), _mixed(2), [1, 2])
    term = seq.term(1)
    e00 = np.diag([1.0, 0.0]).astype(np.complex128)
    e11 = np.diag([0.0, 1.0]).astype(np.complex128)
    e01 = np.zeros((2, 2), dtype=np.complex128); e01[0, 1] = 1.0
    assert np.allclose(channel_action(term, e00), e00, atol=1e-14)
    assert np.allclose(channel_action(term, e11), np.eye(2) / 2, atol=1e-14)
    assert np.allclose(channel_action(term, e01), np.zeros((2, 2)), atol=1e-14)
    # full rank reproduces the base channel
    assert max_action_deviation(seq.term(2), seq.limit) < 1e-14


def test_compression_matches_projector_formula(rng):
    """Direct oracle: P Phi(rho) P + Tr[(I-P) Phi(rho)] sigma."""
    base = ensembles.random_kraus_channel(2, 8, 3, rng)
    sigma = ensembles.random_density(8, rng)
    seq = compression_sequence(base, sigma, list(range(1, 9)))
    rho = ensembles.random_density(2, rng)
    for n in (1, 3, 5, 8):
        p = np.zeros((8, 8), dtype=np.complex128)
        p[:n, :n] = np.eye(n)
        mid = channel_action(base, rho.matrix)
        want = p @ mid @ p + np.trace((np.eye(8) - p) @ mid) * sigma.matrix
        got = channel_action(seq.term(n), rho.matrix)
        assert np.allclose(got, want, atol=1e-12)


def _loop_compression_ops(ch, sigma, r):
    """The compression term's Kraus family built one operator and one row at a time."""
    vals, vecs = ordered_eigh(sigma.matrix)
    kept = [(vals[k], vecs[:, k]) for k in range(len(vals)) if vals[k] > 1e-12]
    proj = np.zeros((ch.d_out, ch.d_out), dtype=np.complex128)
    proj[:r, :r] = np.eye(r)
    lost = np.eye(ch.d_out) - proj
    ops = [proj @ a for a in ch.kraus_ops]
    for p, v in kept:
        root = np.sqrt(p)
        for a in ch.kraus_ops:
            rows = lost @ a
            for m in range(ch.d_out):
                if np.linalg.norm(rows[m, :]) < 1e-14:
                    continue
                ops.append(root * np.outer(v, rows[m, :]))
    return np.array(ops)


def test_compression_terms_match_the_operator_loop(rng):
    sparse = np.zeros((2, 4, 3), dtype=np.complex128)
    sparse[0, :3, :] = np.eye(3) / np.sqrt(2.0)
    sparse[1, 1:, :] = np.eye(3) / np.sqrt(2.0)
    cases = [
        (identity_channel(5), _mixed(5)),
        (ensembles.random_kraus_channel(3, 4, 2, rng), ensembles.random_density(4, rng)),
        (ensembles.random_kraus_channel(2, 5, 3, rng), ensembles.random_density(5, rng, rank=2)),
        (KrausChannel(sparse), DensityOperator(_pure([ensembles.haar_vector(4, rng)])[0])),
    ]
    for base, sigma in cases:
        ranks = list(range(base.d_out + 1))
        seq = compression_sequence(base, sigma, ranks)
        for n, r in enumerate(ranks, start=1):
            got, want = seq.term(n).stack, _loop_compression_ops(base, sigma, r)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_compression_identity_strong_defect_closed_form():
    # rank-n compression of the identity at the maximally mixed state:
    # the kept block gains (8-n)/64 per entry, the lost block drops n/64
    seq = compression_sequence(identity_channel(8), _mixed(8), list(range(1, 9)))
    for n in (1, 3, 5, 8):
        got = strong_defect(seq, n, [_mixed(8).matrix])
        assert got == pytest.approx(n * (8 - n) / 32.0, abs=1e-12)


def test_compression_index_and_rank_validation(rng):
    base = ensembles.random_kraus_channel(2, 4, 2, rng)
    with pytest.raises(ValidationError, match="nondecreasing"):
        compression_sequence(base, _mixed(4), [2, 1])
    with pytest.raises(ValidationError, match="outside 0..4"):
        compression_sequence(base, _mixed(4), [5])
    with pytest.raises(ValidationError, match="at least one rank"):
        compression_sequence(base, _mixed(4), [])
    with pytest.raises(ValidationError, match="dim 2 != channel output dim 4"):
        compression_sequence(base, _mixed(2), [1])
    # A rank is an integer of any type, numpy's included; a bool or a float is not truncated to one.
    for ranks in ([2.7], [1, True], [np.float64(1.5)], [1.0, 2.0]):
        with pytest.raises(ValidationError, match=r"^ranks must be integers, got \["):
            compression_sequence(base, _mixed(4), ranks)
    assert compression_sequence(base, _mixed(4), np.array([1, 3])).term(2).d_out == 4
    seq = compression_sequence(base, _mixed(4), [1, 2])
    with pytest.raises(ValidationError, match="beyond the configured"):
        seq.term(3)


def test_compression_strongstar_monotone_for_subspace_supported_replacement():
    """With the replacement state inside every kept subspace the dual-side
    defect only loses terms as the rank grows."""
    e00 = np.zeros((8, 8)); e00[0, 0] = 1.0
    sigma = DensityOperator(e00)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        base = ensembles.random_kraus_channel(2, 8, 3, rng)
        seq = compression_sequence(base, sigma, list(range(1, 9)))
        obs = ensembles.matrix_unit_observables(8)
        vecs = ensembles.default_test_vectors(2, rng)
        ss = [strongstar_defect(seq, n, obs, vecs) for n in range(1, 9)]
        for a, b in zip(ss, ss[1:]):
            assert b <= a + 1e-12
        assert ss[-1] < 1e-14


def test_compression_strongstar_can_increase_for_mixed_replacement():
    """The maximally mixed replacement feeds a Tr(sigma B)(I - P_n) term into
    the dual map that can partially cancel -B; growing the rank removes the
    cancellation, so monotonicity genuinely fails for this family."""
    rng = np.random.default_rng(164)
    base = ensembles.random_kraus_channel(2, 8, 3, rng)
    seq = compression_sequence(base, _mixed(8), list(range(1, 9)))
    obs = ensembles.matrix_unit_observables(8)
    vecs = ensembles.default_test_vectors(2, rng)
    ss = [strongstar_defect(seq, n, obs, vecs) for n in range(1, 9)]
    assert max(b - a for a, b in zip(ss, ss[1:])) > 0.02


def test_swap_counterexample_exact_values():
    d = 5
    terms, psi = swap_counterexample(d)
    assert len(terms) == d - 1
    p = terms[0].initial_projector
    assert np.allclose(p, np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), atol=1e-15)
    for n, w in enumerate(terms, start=1):
        # the adjoint pulls the witness back to a fresh frame vector forever
        assert np.linalg.norm((w.w.conj().T - p) @ psi) == 1.0
        for j in range(1, d):
            tau = np.eye(d, dtype=complex)[j - 1]
            gap = np.linalg.norm((w.w - p) @ tau)
            if j == n:
                assert gap == pytest.approx(np.sqrt(2.0), abs=1e-15)
            else:
                assert gap == 0.0
    with pytest.raises(ValidationError, match="dimension >= 3"):
        swap_counterexample(2)
    for bad in (4.0, True, "5"):
        with pytest.raises(ValidationError, match=r"^swap_counterexample: dimension must be integers, got \["):
            swap_counterexample(bad)


@pytest.mark.parametrize("d", [4, 6, 16])
def test_swap_report_columns_are_exact(d):
    for probe in range(1, d):
        report = swap_report(d, probe)
        assert list(report.indices) == list(range(1, d))
        assert list(report.columns["strong"]) == [np.sqrt(2.0) if n == probe else 0.0 for n in range(1, d)]
        assert list(report.columns["strongstar"]) == [1.0] * (d - 1)
        assert list(report.columns["strong_witness"]) == [f"tau[{probe}]"] * (d - 1)
        assert list(report.columns["strongstar_witness"]) == ["psi"] * (d - 1)
        assert report.test_family == (
            f"vector-level probes tau[{probe}] and psi; choi from the (2, {d // 2}) embedding"
        )


@pytest.mark.parametrize(
    "d, probe, message",
    [
        # Evenness is checked first, then the family's dimension, then the probe.
        (7, 0, "the swap report needs an even dimension to embed, got 7"),
        (0, 0, "the swap family needs dimension >= 3, got 0"),
        (-4, 9, "the swap family needs dimension >= 3, got -4"),
        (8, 0, "probe index must lie in 1..7, got 0"),
        (8, 8, "probe index must lie in 1..7, got 8"),
        # Both are checked to be integers before any of those rules (a bool is not one).
        (8, True, "swap_report: dimension and probe must be integers, got [8, True]"),
        (8, 1.5, "swap_report: dimension and probe must be integers, got [8, 1.5]"),
        (8.0, 1, "swap_report: dimension and probe must be integers, got [8.0, 1]"),
        (7.0, 0, "swap_report: dimension and probe must be integers, got [7.0, 0]"),
        (np.int64(8), np.int32(9), "probe index must lie in 1..7, got 9"),
    ],
)
def test_swap_report_rejections(d, probe, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        swap_report(d, probe)


def test_partial_trace_form_checks_embedding_compatibility():
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    good = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    assert good.isometry(0) is v0
    iso = good.isometry(2)
    assert (iso.d_out, iso.d_env, iso.d_in) == (2, 3, 4)

    from channel_lab.core import PartialIsometry

    stray = PartialIsometry(np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 1.0]))
    bad = PartialTraceForm(v0, lambda ns: np.stack([stray.w] * len(ns)))
    with pytest.raises(ValidationError, match="deviates from the embedding range"):
        bad.isometry(1)
    with pytest.raises(ValidationError, match="deviates"):
        bad.term(1)


def test_rotation_family_defects_vanish(rng):
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    seq = form
    states = ensembles.default_test_states(4, rng)
    obs = ensembles.matrix_unit_observables(2)
    vecs = ensembles.default_test_vectors(4, rng)
    strong = [strong_defect(seq, n, states) for n in (1, 10, 100)]
    star = [strongstar_defect(seq, n, obs, vecs) for n in (1, 10, 100)]
    choi = [choi_defect(seq, n) for n in (1, 10, 100)]
    for col in (strong, star, choi):
        assert col[0] > col[1] > col[2]
        assert col[2] < 2e-2


def test_givens_rotation_validation_and_norm():
    r = givens_rotation(4, 3, 0, 0.2)
    assert np.allclose(r @ r.T.conj(), np.eye(4), atol=1e-14)
    # operator distance from the identity has the half-angle form
    from channel_lab.core import opnorm

    assert opnorm(r - np.eye(4)) == pytest.approx(2.0 * np.sin(0.1), abs=1e-12)
    with pytest.raises(ValidationError, match="rotation plane"):
        givens_rotation(3, 1, 1, 0.2)
    with pytest.raises(ValidationError, match=r"^rotation dimension and plane must be integers, got \[4, 0, 1\.0\]$"):
        givens_rotation(4, 0, 1.0, 0.2)
    with pytest.raises(ValidationError, match=r"^rotation dimension and plane must be integers, got \[4\.0, 0, 1\]$"):
        givens_rotation(4.0, 0, 1, 0.2)


@pytest.mark.parametrize(
    "plane, message",
    [
        ((0, 0), r"^invalid rotation plane \(0, 0\) in dim 6$"),
        ((6, 0), r"^invalid rotation plane \(6, 0\) in dim 6$"),
        ((5, 0.0), r"^rotation dimension and plane must be integers, got \[6, 5, 0\.0\]$"),
        ((True, 0), r"^rotation dimension and plane must be integers, got \[6, True, 0\]$"),
    ],
    ids=repr,
)
def test_rotation_form_checks_its_plane_at_construction(plane, message):
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)

    def angle(n):
        raise AssertionError("no term is built")

    with pytest.raises(ValidationError, match=message):
        rotation_partial_trace_form(v0, plane, angle)


def test_tensor_and_compose_sequences_propagate_convergence(rng):
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    seq = form
    double = tensor_sequence(seq, seq)
    assert double.limit.d_in == 16
    states = _pure([ensembles.haar_vector(16, rng) for _ in range(3)])
    assert strong_defect(double, 50, states) < 0.1

    # composing two compression families still converges at full rank
    a = compression_sequence(ensembles.random_kraus_channel(2, 4, 2, rng), _mixed(4), [1, 4])
    b = compression_sequence(ensembles.random_kraus_channel(4, 3, 2, rng), _mixed(3), [1, 3])
    chain = compose_sequence(a, b)
    assert max_action_deviation(chain.term(2), chain.limit) < 1e-12
    with pytest.raises(ValidationError, match="cannot compose"):
        compose_sequence(b, a)


def test_a_form_goes_wherever_a_sequence_does():
    """A partial-trace form is a ``ChannelSequence``: its limit is the Kraus family of ``v0`` and its term n
    the block of one, so ``tensor_sequence`` takes two forms as they are.  The tensor sequence's Choi column
    matches the dense ``trace_norm(J_n - J_0) / d_in``."""
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    assert isinstance(form, ChannelSequence)
    assert np.array_equal(form.limit.stack, kraus_from_isometry(v0).stack)
    assert form.term(0) is form.limit
    double = tensor_sequence(form, form)
    assert (double.limit.d_in, double.limit.d_out) == (16, 4)
    ns = [1, 2, 3]
    dense = [trace_norm(choi_matrix(double.term(n)) - choi_matrix(double.limit)) / 16 for n in ns]
    assert np.allclose(choi_defects(double, ns), dense, rtol=0, atol=1e-12)


def test_complementary_sequence_of_partial_trace_form(rng):
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    comp = complementary_sequence(form)
    assert comp.limit.d_out == 3
    states = ensembles.default_test_states(4, rng)
    vals = [strong_defect(comp, n, states) for n in (1, 10, 100)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 2e-2


def test_complementary_sequence_of_plain_channel_sequence(rng):
    ch = identity_channel(2)
    seq = ChannelSequence(ch, lambda n: ch)
    comp = complementary_sequence(seq)
    # common padded environment dim is d_in * d_out
    assert comp.limit.d_out == 4
    assert max_action_deviation(comp.term(2), comp.limit) < 1e-12

    ranks = [1, 2, 3, 4]
    cseq = compression_sequence(ensembles.random_kraus_channel(2, 4, 2, rng), _mixed(4), ranks)
    ccomp = complementary_sequence(cseq)
    assert max_action_deviation(ccomp.term(4), ccomp.limit) < 1e-10


def test_convergence_report_columns_and_witnesses(rng):
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    seq = form
    states = ensembles.default_test_states(4, rng)
    obs = ensembles.matrix_unit_observables(2)
    vecs = ensembles.default_test_vectors(4, rng)
    rep = convergence_report(seq, [1, 10], Probes(states, obs, vecs), test_family="rotation")
    assert rep.indices == (1, 10)
    assert rep.strong[0] == pytest.approx(strong_defect(seq, 1, states), abs=1e-14)
    assert rep.strongstar[1] == pytest.approx(strongstar_defect(seq, 10, obs, vecs), abs=1e-14)
    assert rep.choi[1] == pytest.approx(choi_defect(seq, 10), abs=1e-14)
    k = int(rep.strong_witness[0].split("[")[1].rstrip("]"))
    attained = trace_norm(
        channel_action(seq.term(1), states[k])
        - channel_action(seq.limit, states[k])
    )
    assert attained == pytest.approx(rep.strong[0], abs=1e-14)


def test_convergence_report_is_deterministic(rng):
    v0 = StinespringIsometry(np.eye(4, 3), 2, 2)
    form = rotation_partial_trace_form(v0, (3, 0), lambda n: 1.0 / n)
    seq = form
    states = ensembles.default_test_states(3, rng)
    obs = ensembles.matrix_unit_observables(2)
    vecs = ensembles.default_test_vectors(3, rng)

    def build():
        return convergence_report(seq, [1, 2, 3, 4], Probes(states, obs, vecs))

    assert build().to_json_dict() == build().to_json_dict()


def _rotation_sequence(d_in, d_out, d_env):
    v0 = StinespringIsometry(np.eye(d_out * d_env, d_in), d_out, d_env)
    return rotation_partial_trace_form(v0, (d_out * d_env - 1, 0), lambda n: 1.0 / n)


def _sweep_case(case, rng):
    """A sequence, its indices and its default probes, for the block-size tests."""
    if case == "partial-trace-form":
        # 6 indices to a default block (the strong* images are its largest stack): 20 span four.
        seq, ns = _rotation_sequence(8, 4, 8), range(1, 21)
    elif case == "compress-mixed":
        # Kraus counts 4, 10, 2, 8, 4, 6 against the limit's 2 with d_out*d_in = 8:
        # one QR group of two terms, three with K_n + K_0 >= d_out*d_in, whose R
        # has d_out*d_in rows, and an exact zero, interleaved in one block.
        base = ensembles.random_kraus_channel(2, 4, 2, rng)
        sigma = DensityOperator(_pure([ensembles.haar_vector(4, rng)])[0])
        seq = compression_sequence(base, sigma, [0, 1, 2, 3, 3, 4])
        ns = [4, 1, 6, 2, 5, 3]
        assert [len(seq.term(n).kraus_ops) for n in ns] == [4, 10, 2, 8, 4, 6]
    else:
        ch = ensembles.random_kraus_channel(3, 2, 4, rng)
        seq, ns = ChannelSequence(ch, lambda n: ch), [1, 2, 3]
    return seq, list(ns), ensembles.default_probes(seq.limit.d_in, seq.limit.d_out, rng)


@pytest.mark.parametrize("case", ["partial-trace-form", "compress-mixed", "constant"])
def test_convergence_report_does_not_depend_on_the_block_size(case, rng, monkeypatch):
    seq, ns, probes = _sweep_case(case, rng)

    def sweep():
        return convergence_report(seq, ns, probes).to_json_dict(), choi_defects(seq, ns).tolist()

    default = sweep()
    if case == "partial-trace-form":
        assert sequences.SWEEP_BLOCK_ENTRIES // (seq.limit.d_out * seq.limit.d_in) ** 2 < len(ns)
    if case == "compress-mixed":
        # Index 6 has full rank: the term is the limit, through the QR branch's size.
        assert default[0]["choi"][ns.index(6)] == 0.0
    if case == "constant":
        assert default[0]["strong"] == default[0]["strongstar"] == default[0]["choi"] == [0.0] * 3
    assert default[1] == [choi_defect(seq, n) for n in ns]
    for entries in (1, 10**9):
        monkeypatch.setattr(sequences, "SWEEP_BLOCK_ENTRIES", entries)
        assert sweep() == default


def test_convergence_report_memory_does_not_grow_with_the_index_count(rng):
    seq = _rotation_sequence(8, 4, 8)
    probes = ensembles.default_probes(8, 4, rng)
    peaks = []
    for n_max in (60, 240):
        tracemalloc.start()
        try:
            convergence_report(seq, range(1, n_max + 1), probes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], f"peaks {peaks[0] / 1e6:.2f} and {peaks[1] / 1e6:.2f} MB"


def test_matrix_unit_dual_norms_form_no_adjoint_and_no_observable_product(rng):
    """Matrix units stack to I, so the strong* kernel keeps only the vector images
    (1.17x ``ds`` here) and the conjugate their squared moduli are taken
    against in place: about 2.3x ``ds``.  The general path also holds the
    product of the observables with ``ds``, about 3.4x."""
    d = 12
    seq = compression_sequence(identity_channel(d), _mixed(d), range(1, d + 1))
    ds = sequences._deltas(seq._kraus_groups((d // 2,)), choi_matrix(seq.limit), d)
    units = ensembles.matrix_unit_observables(d)
    unit_columns = sequences._probe_columns(units, "test observable", (d, d))
    obs = sequences._unless_identity(units, d)
    vecs = sequences._probe_columns(ensembles.default_test_vectors(d, rng), "test vector", (d,))
    assert obs is None
    tracemalloc.start()
    try:
        norms = sequences._dual_norms(ds, obs, vecs, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ds.nbytes, f"peak {peak / ds.nbytes:.2f}x ds"
    general = sequences._dual_norms(ds, unit_columns, vecs, d)
    assert np.array_equal(norms, general)


@pytest.mark.parametrize("bad", [{5}, {5, 7}, {8, 9}])
def test_convergence_report_raises_for_the_first_invalid_term(bad, rng):
    """Terms 1..8 share a block; the first invalid term is reported, as in an index loop."""
    good = _rotation_sequence(8, 4, 8)
    seq = ChannelSequence(good.limit, lambda n: identity_channel(8) if n in bad else good.term(n))
    _, ns, probes = _sweep_case("partial-trace-form", rng)
    with pytest.raises(ValidationError, match=rf"term {min(bad)} acts between dims \(8,8\)"):
        convergence_report(seq, ns, probes)
    v0 = StinespringIsometry(np.eye(32, 8), 4, 8)
    form = rotation_partial_trace_form(v0, (31, 0), lambda n: 1.0 / n)
    stray = PartialTraceForm(v0, lambda ns: np.stack([np.eye(32) if n in bad else form.w_fn((n,))[0] for n in ns]))
    with pytest.raises(ValidationError, match=rf"term {min(bad)}: initial projector deviates"):
        convergence_report(stray, ns, probes)


def _stray_w(kind: str) -> np.ndarray:
    """A W(n) of the 8/4/8 form that fails one check: projector (and range), range only, or finiteness."""
    p0 = np.diag(np.repeat([1.0, 0.0], [8, 24]))
    return {"projector": 2 * p0, "range": np.eye(32), "nonfinite": np.full((32, 32), np.nan)}[kind]


_STRAY_MESSAGES = {
    "projector": "W*W is not a projector (defect 1.200e+01)",
    "range": "term {n}: initial projector deviates from the embedding range by 1.000e+00",
    "nonfinite": "partial isometry contains non-finite entries",
}


@pytest.mark.parametrize(
    "bad",
    [
        {5: "range"},
        {5: "range", 7: "range"},
        {8: "range", 9: "range"},
        {5: "projector", 7: "range"},
        {5: "range", 7: "projector"},
        {5: "nonfinite", 7: "range"},
        {6: "range", 7: "nonfinite"},
        {8: "range", 9: "projector"},
        {8: "projector", 9: "range"},
        {6: "range", 7: "projector"},
    ],
)
@pytest.mark.parametrize("per_block", [1, 3, 6])
def test_a_form_block_rejects_its_first_bad_index_at_its_first_failing_check(bad, per_block, rng, monkeypatch):
    """The W checks of a block run one batched rule per invariant, yet a sweep stops where an index loop would.

    Indices 1..20 of the 8/4/8 form, 6 terms to a default report block, 1 and 3 with a smaller budget;
    a W(n) = 2 P0 fails the projector check first, and the range check too.
    """
    v0 = StinespringIsometry(np.eye(32, 8), 4, 8)
    form = rotation_partial_trace_form(v0, (31, 0), lambda n: 1.0 / n)
    stray = PartialTraceForm(
        v0, lambda ns: np.stack([_stray_w(bad[n]) if n in bad else form.w_fn((n,))[0] for n in ns])
    )
    seq = stray
    first = min(bad)
    message = _STRAY_MESSAGES[bad[first]].format(n=first)
    _, ns, probes = _sweep_case("partial-trace-form", rng)
    # The report's largest stack is the strong* images: 16 x 8 x 10 entries per term.
    monkeypatch.setattr(sequences, "SWEEP_BLOCK_ENTRIES", per_block * 16 * 8 * 10)
    assert seq._terms_per_block(16 * 8 * 10) == per_block
    for sweep in (lambda: convergence_report(seq, ns, probes), lambda: choi_defects(seq, ns)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sweep()
    for build in (seq.term, stray.isometry):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(first)


def test_report_validation_and_round_trip(tmp_path):
    rep = Report(
        "convergence-report",
        indices=(1, 2),
        strong=(0.5, 0.25),
        strongstar=(1.0, 1.0),
        choi=(0.75, 0.5),
        strong_witness=("state[0]", "state[0]"),
        strongstar_witness=("obs[1]|vec[0]", "obs[1]|vec[0]"),
        test_family="crafted",
    )
    assert rep.choi_dominates_strong == (True, True)
    path = tmp_path / "rep.json"
    rep.write_json(path)
    loaded = from_json_dict(json.loads(path.read_text()))
    assert loaded.indices == rep.indices
    assert loaded.strong == rep.strong
    assert loaded.test_family == "crafted"

    csv_path = tmp_path / "rep.csv"
    rep.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,strong,strongstar,choi,strong_witness,strongstar_witness"
    assert lines[1] == "1,0.5,1.0,0.75,state[0],obs[1]|vec[0]"

    with pytest.raises(ValidationError, match="wrong length"):
        Report("convergence-report", (1,), strong=(0.1, 0.2), strongstar=(0.1,), choi=(0.1,),
               strong_witness=("a",), strongstar_witness=("b",))
    with pytest.raises(ValidationError, match="nonnegative"):
        Report("convergence-report", (1,), strong=(-0.1,), strongstar=(0.1,), choi=(0.1,),
               strong_witness=("a",), strongstar_witness=("b",))
    with pytest.raises(ValidationError, match="malformed"):
        from_json_dict({"kind": "convergence-report"})


def test_choi_dominance_diagnostic_can_be_false():
    """The Choi column is only a diamond-norm lower bound, so a well-chosen
    state can beat it: two constant channels with far-apart outputs on one
    basis state but agreeing elsewhere."""
    e0 = np.zeros((2, 2)); e0[0, 0] = 1.0
    e1 = np.zeros((2, 2)); e1[1, 1] = 1.0

    def measure_prepare(out0, out1):
        ops = []
        for pos, out in ((0, out0), (1, out1)):
            vals, vecs = np.linalg.eigh(out)
            for k in range(2):
                if vals[k] > 1e-12:
                    a = np.zeros((2, 2), dtype=np.complex128)
                    a[:, pos] = np.sqrt(vals[k]) * vecs[:, k]
                    ops.append(a)
        return KrausChannel(tuple(ops))

    shared = np.eye(2) / 2
    a = measure_prepare(e0, shared)
    b = measure_prepare(e1, shared)
    seq = _pair_sequence(a, b)
    basis = _pure(np.eye(2))
    assert strong_defect(seq, 1, basis) == pytest.approx(2.0, abs=1e-12)
    assert choi_defect(seq, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_report_rejects_non_finite_defects(bad):
    for col in range(3):
        values = [(0.1,), (0.1,), (0.1,)]
        values[col] = (bad,)
        with pytest.raises(ValidationError, match="finite"):
            Report("convergence-report", (1,), **dict(zip(("strong", "strongstar", "choi"), values)),
                   strong_witness=("a",), strongstar_witness=("b",))


def _block_choi(ch):
    """``sum_ij ch(E_ij) (x) E_ij``, one channel action per matrix unit."""
    d = ch.d_in
    out = np.zeros((ch.d_out * d,) * 2, dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[i, j] = 1.0
            out += np.kron(channel_action(ch, unit), unit)
    return out


def _naive_report(seq, ns, states, obs, vecs):
    """Oracle: per-state and per-observable loops over the Kraus actions,
    with first-strict-maximum witnesses."""
    rows = []
    for n in ns:
        term, limit = seq.term(n), seq.limit
        strong, s_arg = -1.0, 0
        for k, rho in enumerate(states):
            val = trace_norm(channel_action(term, rho) - channel_action(limit, rho))
            if val > strong:
                strong, s_arg = val, k
        star, b_arg, v_arg = -1.0, 0, 0
        for kb, b in enumerate(obs):
            delta = dual_action(term, b) - dual_action(limit, b)
            for kv, vec in enumerate(vecs):
                val = float(np.linalg.norm(delta @ vec))
                if val > star:
                    star, b_arg, v_arg = val, kb, kv
        choi = trace_norm(_block_choi(term) - _block_choi(limit)) / limit.d_in
        rows.append((n, strong, f"state[{s_arg}]", star, f"obs[{b_arg}]|vec[{v_arg}]", choi))
    return rows


def _assert_matches_oracle(seq, ns, states, obs, vecs):
    rep = convergence_report(seq, ns, Probes(states, obs, vecs))
    want = _naive_report(seq, ns, states, obs, vecs)
    assert rep.indices == tuple(r[0] for r in want)
    assert rep.strong_witness == tuple(r[2] for r in want)
    assert rep.strongstar_witness == tuple(r[4] for r in want)
    for got, col in ((rep.strong, 1), (rep.strongstar, 3), (rep.choi, 5)):
        assert got == pytest.approx([r[col] for r in want], rel=0, abs=1e-12)
    return rep


@pytest.mark.parametrize("base", ["identity", "random"])
def test_kernel_matches_oracle_on_compression(base, rng):
    ch = identity_channel(5) if base == "identity" else ensembles.random_kraus_channel(5, 5, 3, rng)
    seq = compression_sequence(ch, _mixed(5), [1, 2, 3, 4, 5])
    _assert_matches_oracle(
        seq,
        range(1, 6),
        ensembles.default_test_states(5, rng),
        ensembles.matrix_unit_observables(5),
        ensembles.default_test_vectors(5, rng),
    )


def test_kernel_matches_oracle_on_rotation_partial_trace_form(rng):
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    _assert_matches_oracle(
        form,
        [1, 2, 10, 100],
        ensembles.default_test_states(4, rng),
        ensembles.matrix_unit_observables(2),
        ensembles.default_test_vectors(4, rng),
    )


def test_kernel_matches_oracle_on_rectangular_pair_with_many_kraus_ops(rng):
    # d_in != d_out and K > d_in * d_out: more Kraus operators than Choi rank
    a = ensembles.random_kraus_channel(2, 3, 8, rng)
    b = ensembles.random_kraus_channel(2, 3, 7, rng)
    assert len(a.kraus_ops) > a.d_in * a.d_out
    _assert_matches_oracle(
        _pair_sequence(a, b),
        [1, 2],
        ensembles.default_test_states(2, rng),
        ensembles.matrix_unit_observables(3),
        ensembles.default_test_vectors(2, rng),
    )


def test_kernel_matches_oracle_on_non_hermitian_observables(rng):
    a = ensembles.random_kraus_channel(3, 4, 2, rng)
    b = ensembles.random_kraus_channel(3, 4, 3, rng)
    obs = [ensembles.crandn((4, 4), rng) for _ in range(6)]
    assert all(np.abs(o - o.conj().T).max() > 0.1 for o in obs)
    _assert_matches_oracle(
        _pair_sequence(a, b),
        [1],
        ensembles.default_test_states(3, rng),
        obs,
        ensembles.default_test_vectors(3, rng),
    )


def test_kernel_on_constant_sequence_is_zero_with_first_witnesses(rng):
    ch = ensembles.random_kraus_channel(3, 2, 4, rng)
    seq = ChannelSequence(ch, lambda n: ch)
    rep = _assert_matches_oracle(
        seq,
        [1, 2, 3],
        ensembles.default_test_states(3, rng),
        ensembles.matrix_unit_observables(2),
        ensembles.default_test_vectors(3, rng),
    )
    assert rep.strong == rep.strongstar == rep.choi == (0.0, 0.0, 0.0)
    assert rep.strong_witness == ("state[0]",) * 3
    assert rep.strongstar_witness == ("obs[0]|vec[0]",) * 3


def test_report_reader_rejects_unknown_kinds():
    rep = Report(
        "convergence-report",
        indices=(1,),
        strong=(0.5,),
        strongstar=(1.0,),
        choi=(0.75,),
        strong_witness=("state[0]",),
        strongstar_witness=("obs[0]|vec[0]",),
    )
    doc = rep.to_json_dict()
    for kind in ("kraus", None, ["convergence-report"]):
        with pytest.raises(ValidationError, match="not a report"):
            from_json_dict({**doc, "kind": kind})
    with pytest.raises(ValidationError, match="unknown report kind"):
        Report("kraus", (1,), strong=(0.5,))


@pytest.mark.parametrize("index", [1.5, True, np.float64(2.0), "1", None])
def test_term_and_isometry_check_the_index_before_anything_is_built(index, rng):
    """A term or an isometry at an index that is not an integer (a bool is not) builds nothing."""
    built = []
    base = ensembles.random_kraus_channel(2, 2, 2, rng)
    plain = ChannelSequence(base, lambda n: built.append(n) or base)
    compress = compression_sequence(identity_channel(3), _mixed(3), [1, 2, 3])
    rotation = rotation_partial_trace_form(StinespringIsometry(np.eye(6, 4), 2, 3), (5, 0), lambda n: 1.0 / n)
    form = PartialTraceForm(rotation.v0, lambda ns: built.append(ns) or rotation.w_fn(ns))
    message = f"sequence index must be integers, got [{index!r}]"
    for build in (plain.term, compress.term, form.isometry, form.term):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(index)
    assert built == []


def test_a_form_sweep_takes_index_zero_and_negative_indices_term_by_term(rng):
    """A block holding index 0 (the limit) or a negative index is built term by term, in index order."""
    form = rotation_partial_trace_form(StinespringIsometry(np.eye(6, 4), 2, 3), (5, 0), lambda n: 1.0 / n)
    seq = form
    probes = ensembles.default_probes(4, 2, rng)
    with_zero = convergence_report(seq, [0, 1, 2], probes)
    assert with_zero.strong[0] == with_zero.strongstar[0] == with_zero.choi[0] == 0.0
    assert with_zero.to_json_dict()["strong"][1:] == convergence_report(seq, [1, 2], probes).to_json_dict()["strong"]
    assert choi_defects(seq, [2, 0]).tolist() == [choi_defect(seq, 2), 0.0]
    with pytest.raises(ValidationError, match="^sequence index must be >= 0, got -1$"):
        choi_defects(seq, [1, -1])


@pytest.mark.parametrize("shape", [(6, 6), (1, 7, 6), (2, 6, 6)])
def test_a_w_rule_of_the_wrong_shape_is_named(shape):
    form = PartialTraceForm(StinespringIsometry(np.eye(6, 4), 2, 3), lambda ns: np.zeros(shape))
    message = f"the W rule gave shape {shape} for indices [1], expected (1, 6, 6)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        form.isometry(1)


def test_partial_trace_form_rejects_negative_indices():
    form = rotation_partial_trace_form(StinespringIsometry(np.eye(6, 4), 2, 3), (5, 0), lambda n: 1.0 / n)
    with pytest.raises(ValidationError, match="sequence index must be >= 0, got -1"):
        form.isometry(-1)


#: Each sweep with a limit it can take, called on a sequence and its indices.
_SWEEPS = {
    "convergence_report": (identity_channel(2), lambda seq, ns: convergence_report(
        seq,
        ns,
        Probes(_pure(np.eye(2)), ensembles.matrix_unit_observables(2), np.eye(2, dtype=complex)[:1]),
    )),
    "choi_defects": (identity_channel(2), choi_defects),
    "param_convergence_check": (attenuator(0.5), lambda seq, ns: param_convergence_check(seq, ns, 1e-6)),
}


def _plain(result):
    return result.tolist() if isinstance(result, np.ndarray) else result.to_json_dict()


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
@pytest.mark.parametrize("ns", [[1.7, 2.2], [1, True], [np.float64(1.0)], ["1"]], ids=repr)
def test_sweeps_reject_indices_that_are_not_integers(sweep, ns):
    limit, run_sweep = _SWEEPS[sweep]
    built = []
    seq = ChannelSequence(limit, lambda n: built.append(n) or limit)
    with pytest.raises(ValidationError, match=re.escape(f"{sweep}: indices must be integers, got {ns!r}")):
        run_sweep(seq, ns)
    assert built == []


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_sweeps_take_integers_of_every_type(sweep):
    limit, run_sweep = _SWEEPS[sweep]
    seq = ChannelSequence(limit, lambda n: limit)
    assert _plain(run_sweep(seq, np.array([1, 3]))) == _plain(run_sweep(seq, range(1, 4, 2)))
