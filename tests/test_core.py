import numpy as np
import pytest

from channel_lab import dilation, ensembles
from channel_lab.core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    UnitaryOp,
    ValidationError,
    amplitude_damping_channel,
    channel_action,
    choi_matrix,
    compose_channels,
    dagger,
    dephasing_channel,
    depolarizing_qubit_channel,
    dual_action,
    identity_channel,
    max_action_deviation,
    opnorm,
    ordered_eigh,
    partial_trace,
    replacement_channel,
    tensor_channels,
    trace_norm,
    _eigen_order,
    _fix_phase,
)
from channel_lab.ensembles import Probes
from channel_lab.gaussian import (
    GaussianState,
    attenuator,
    attenuator_output_distance,
    char_fn,
    dual_weyl_symbol,
    identity_gaussian,
    vacuum,
)
from channel_lab.sequences import ChannelSequence, strong_defect


def test_trace_norm_hand_values():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)
    # |0><0| - |+><+| has eigenvalues +-1/sqrt(2)
    plus = np.full((2, 2), 0.5)
    delta = np.diag([1.0, 0.0]) - plus
    assert trace_norm(delta) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_trace_norm_is_not_the_induced_one_norm():
    # [[1,1],[0,1]] has singular value sum sqrt(5), max column sum 2.
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert trace_norm(x) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert np.linalg.norm(x, 1) == pytest.approx(2.0)


def test_tensor_flattening_is_row_major():
    a = np.zeros((2, 2)); a[1, 0] = 1.0
    b = np.zeros((3, 3)); b[0, 1] = 1.0
    t = np.kron(a, b)
    # basis label (i, k) maps to i * dim_right + k
    assert t[1 * 3 + 0, 0 * 3 + 1] == 1.0
    assert np.count_nonzero(t) == 1


def test_partial_trace_of_bell_state():
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    for which in ("B", "E"):
        red = partial_trace(rho, which, 2, 2)
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_of_product_state(rng):
    a = ensembles.random_density(2, rng).matrix
    b = ensembles.random_density(3, rng).matrix
    big = np.kron(a, b)
    assert np.allclose(partial_trace(big, "E", 2, 3), a, atol=1e-13)
    assert np.allclose(partial_trace(big, "B", 2, 3), b, atol=1e-13)


def test_partial_trace_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="2x3"):
        partial_trace(np.eye(5), "E", 2, 3)
    with pytest.raises(ValidationError, match="unknown factor"):
        partial_trace(np.eye(6), "X", 2, 3)


def _loop_channel_action(ch, x):
    out = np.zeros((ch.d_out, ch.d_out), dtype=np.complex128)
    for a in ch.kraus_ops:
        out += a @ x @ dagger(a)
    return out


def _loop_dual_action(ch, b):
    out = np.zeros((ch.d_in, ch.d_in), dtype=np.complex128)
    for a in ch.kraus_ops:
        out += dagger(a) @ b @ a
    return out


@pytest.mark.parametrize("d_in,d_out,n_ops", [(2, 2, 1), (3, 3, 4), (2, 5, 3), (6, 2, 5)])
def test_actions_match_the_kraus_loops(d_in, d_out, n_ops, rng):
    ch = ensembles.random_kraus_channel(d_in, d_out, n_ops, rng)
    x = ensembles.crandn((d_in, d_in), rng)
    b = ensembles.crandn((d_out, d_out), rng)
    assert np.abs(channel_action(ch, x) - _loop_channel_action(ch, x)).max() <= 1e-12
    assert np.abs(dual_action(ch, b) - _loop_dual_action(ch, b)).max() <= 1e-12


def test_duality_identity_on_random_triples(rng):
    """Tr Phi(rho) B must equal Tr rho Phi*(B) to numerical precision."""
    for dim in (2, 3, 4, 6):
        for _ in range(5):
            ch = ensembles.random_kraus_channel(dim, dim, 3, rng)
            rho = ensembles.random_density(dim, rng)
            b = ensembles.crandn((dim, dim), rng)
            lhs = np.trace(channel_action(ch, rho.matrix) @ b)
            rhs = np.trace(rho.matrix @ dual_action(ch, b))
            assert abs(lhs - rhs) < 1e-12


def test_density_operator_validation_messages():
    with pytest.raises(ValidationError, match=r"^density operator is not Hermitian \(deviation 1\.000e\+00\)$"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match=r"^density operator has negative eigenvalue -5\.000e-01$"):
        DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError, match=r"^density operator has trace 1\.4\+0j, expected 1$"):
        DensityOperator(np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError, match="^density operator contains non-finite entries$"):
        DensityOperator(np.diag([np.nan, 1.0]))
    with pytest.raises(ValidationError, match=r"shape \(2, 3\)"):
        DensityOperator(np.zeros((2, 3)))


def test_kraus_channel_validation():
    with pytest.raises(ValidationError, match="trace preserving"):
        KrausChannel((np.diag([1.0, 0.5]),))
    with pytest.raises(ValidationError, match=r"^Kraus operator 1 has shape \(2, 2\), Kraus operator 0 has \(3, 2\)$"):
        KrausChannel((np.zeros((3, 2)), np.zeros((2, 2))))
    with pytest.raises(ValidationError, match="at least one"):
        KrausChannel(())
    with pytest.raises(ValidationError, match="at least one"):
        KrausChannel(np.zeros((0, 2, 2)))
    with pytest.raises(ValidationError, match=r"must be matrices, got shape \(2,\)"):
        KrausChannel((np.ones(2),))
    with pytest.raises(ValidationError, match=r"must be matrices, got shape \(0, 2\)"):
        KrausChannel(np.zeros((1, 0, 2)))
    # An array is checked as a whole: a matrix is a family of row vectors,
    # a rank-4 array a family of rank-3 operators.
    with pytest.raises(ValidationError, match=r"must be matrices, got shape \(2,\)"):
        KrausChannel(np.eye(2))
    with pytest.raises(ValidationError, match=r"must be matrices, got shape \(1, 2, 2\)"):
        KrausChannel(np.eye(2).reshape(1, 1, 2, 2))
    with pytest.raises(ValidationError, match="Kraus operator contains non-finite"):
        KrausChannel((np.array([[np.nan, 0.0], [0.0, 1.0]]),))
    with pytest.raises(ValidationError, match="Kraus operator contains non-finite"):
        KrausChannel(np.array([[[np.inf, 0.0], [0.0, 1.0]]]))
    with pytest.raises(ValidationError, match="trace preserving"):
        KrausChannel(np.stack([np.eye(2), np.eye(2)]))


def test_kraus_family_is_one_read_only_stack(rng):
    ch = ensembles.random_kraus_channel(3, 2, 4, rng)
    from_array = KrausChannel(np.array(ch.kraus_ops))
    from_list = KrausChannel([np.array(a) for a in ch.kraus_ops])
    for got in (ch, from_array, from_list):
        assert got.stack.shape == (4, 2, 3)
        assert got.stack.dtype == np.complex128
        assert np.array_equal(got.stack, ch.stack)
        assert not got.stack.flags.writeable
        assert len(got.kraus_ops) == 4
        for k, a in enumerate(got.kraus_ops):
            assert not a.flags.writeable
            assert np.shares_memory(a, got.stack)
            assert np.array_equal(a, got.stack[k])
        with pytest.raises(ValueError):
            got.kraus_ops[0][0, 0] = 1.0
    # the channel keeps its own copy of an array argument
    source = np.array(ch.stack)
    kept = KrausChannel(source)
    source[0, 0, 0] += 1.0
    assert np.array_equal(kept.stack, ch.stack)


def test_unitary_and_partial_isometry_validation():
    with pytest.raises(ValidationError, match="not unitary"):
        UnitaryOp(np.diag([1.0, 0.5]))
    with pytest.raises(ValidationError, match="not a projector"):
        PartialIsometry(np.array([[1.0, 0.0], [1.0, 0.0]]))
    # rank-deficient rectangular partial isometries are fine
    PartialIsometry(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_partial_isometry_keeps_its_read_only_initial_projector(rng):
    for w in (ensembles.random_partial_isometry(5, 3, rng), PartialIsometry(np.eye(3, 2))):
        assert np.array_equal(w.initial_projector, dagger(w.w) @ w.w)
        assert not w.initial_projector.flags.writeable
        with pytest.raises(ValueError):
            w.initial_projector[0, 0] = 2.0
        assert "initial_projector" not in repr(w)
        assert np.array_equal(w.range_projector, w.w @ dagger(w.w))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: strong_defect(
                ChannelSequence(identity_channel(2), lambda n: identity_channel(2)), 1, [DensityOperator(np.eye(2) / 2)]
            ),
            "test state family is not numeric: must be real number, not DensityOperator",
        ),
        (lambda: KrausChannel(["ab"]), "Kraus operator family is not numeric: complex() arg is a malformed string"),
        (lambda: KrausChannel([np.eye(2), [[1, 2], [3]]]), "Kraus operator family is not numeric: "),
        (
            lambda: Probes([np.eye(2) / 2], [np.eye(2)], [[1, "a"]]),
            "test vector family is not numeric: complex() arg is a malformed string",
        ),
    ],
    ids=["density-operator-state", "string-kraus", "ragged-kraus", "string-vector"],
)
def test_stack_rejects_non_numeric_members(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StinespringIsometry("x", 1, 1), "isometry is not numeric: complex() arg is a malformed string"),
        (lambda: UnitaryOp([["a"]]), "unitary is not numeric: complex() arg is a malformed string"),
        (lambda: PartialIsometry([[object()]]), "partial isometry is not numeric: must be real number, not object"),
        (lambda: DensityOperator([[1, 0], [0]]), "density operator is not numeric: "),
        (
            lambda: GaussianState(mean=["a", "b"], cov=np.eye(2)),
            "mean vector is not numeric: could not convert string to float: 'a'",
        ),
        (lambda: char_fn(vacuum(1), ["a", "b"]), "phase-space point is not numeric: "),
        (lambda: dual_weyl_symbol(identity_gaussian(1), [object(), 0.0]), "phase-space point is not numeric: "),
        (lambda: dilation._ancilla_vector(["a"], 1), "ancilla vector is not numeric: "),
    ],
    ids=["isometry", "unitary", "partial-isometry", "ragged-state", "gaussian-mean", "char-fn-point",
         "dual-weyl-point", "ancilla"],
)
def test_non_numeric_input_is_a_validation_error(build, message):
    """Every conversion of outside input goes through ``core._numeric``, the rule ``_stack`` uses."""
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("value", [True, None, "0.5", np.array([0.5])], ids=["bool", "none", "str", "array"])
@pytest.mark.parametrize(
    "build, what",
    [
        (attenuator, "transmissivity"),
        (lambda k: attenuator_output_distance(k, 0.5, 1), "transmissivity k"),
        (lambda k: attenuator_output_distance(0.5, k, 1), "transmissivity k_prime"),
        (dephasing_channel, "off-diagonal factor"),
        (amplitude_damping_channel, "damping probability"),
    ],
    ids=["attenuator", "distance-k", "distance-k_prime", "dephasing", "damping"],
)
def test_unit_interval_parameters_must_be_real(build, what, value):
    with pytest.raises(ValidationError, match=f"^{what} must be a real number, got "):
        build(value)


def test_dephasing_channel_scales_off_diagonals(rng):
    ch = dephasing_channel(0.5)
    x = ensembles.crandn((2, 2), rng)
    out = channel_action(ch, x)
    assert out[0, 0] == pytest.approx(x[0, 0])
    assert out[1, 1] == pytest.approx(x[1, 1])
    assert out[0, 1] == pytest.approx(0.5 * x[0, 1])
    assert out[1, 0] == pytest.approx(0.5 * x[1, 0])
    with pytest.raises(ValidationError, match="off-diagonal factor"):
        dephasing_channel(1.2)


def test_depolarizing_channel_outputs_maximally_mixed(rng):
    ch = depolarizing_qubit_channel()
    rho = ensembles.random_density(2, rng)
    assert np.allclose(channel_action(ch, rho.matrix), np.eye(2) / 2, atol=1e-14)


def test_amplitude_damping_action():
    ch = amplitude_damping_channel(0.3)
    e01 = np.zeros((2, 2)); e01[0, 1] = 1.0
    e11 = np.diag([0.0, 1.0])
    out11 = channel_action(ch, e11)
    assert np.allclose(out11, np.diag([0.3, 0.7]), atol=1e-14)
    out01 = channel_action(ch, e01)
    assert out01[0, 1] == pytest.approx(np.sqrt(0.7), abs=1e-14)
    with pytest.raises(ValidationError, match="damping probability"):
        amplitude_damping_channel(-0.1)


def _loop_replacement_ops(sigma, d_in):
    vals, vecs = ordered_eigh(sigma.matrix)
    ops = []
    for k in range(len(vals)):
        if vals[k] <= 1e-12:
            continue
        for m in range(d_in):
            a = np.zeros((sigma.dim, d_in), dtype=np.complex128)
            a[:, m] = np.sqrt(vals[k]) * vecs[:, k]
            ops.append(a)
    return np.array(ops)


def test_replacement_channel_is_constant(rng):
    sigma = ensembles.random_density(3, rng)
    rho = ensembles.random_density(2, rng)
    for state, d_in in ((sigma, 2), (ensembles.random_density(4, rng, rank=2), 3), (sigma, 1)):
        ch = replacement_channel(state, d_in)
        want = _loop_replacement_ops(state, d_in)
        assert ch.stack.shape == want.shape
        assert np.abs(ch.stack - want).max() <= 1e-12
    ch = replacement_channel(sigma, 2)
    assert np.allclose(channel_action(ch, rho.matrix), sigma.matrix, atol=1e-12)


def test_choi_matrix_matches_block_construction(rng):
    """Cross-check against the definition sum_ij Phi(E_ij) (x) E_ij."""
    ch = ensembles.random_kraus_channel(3, 2, 3, rng)
    direct = np.zeros((6, 6), dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=np.complex128)
            e[i, j] = 1.0
            direct += np.kron(channel_action(ch, e), e)
    assert np.allclose(choi_matrix(ch), direct, atol=1e-13)


def test_choi_matrix_is_positive_with_input_dim_trace(rng):
    ch = ensembles.random_kraus_channel(4, 3, 2, rng)
    j = choi_matrix(ch)
    assert np.trace(j).real == pytest.approx(4.0, abs=1e-10)
    assert np.linalg.eigvalsh(j).min() > -1e-12


def test_choi_rank_fingerprints():
    ranks = {
        "identity": (identity_channel(2), 1),
        "dephasing": (dephasing_channel(0.0), 2),
        "depolarizing": (depolarizing_qubit_channel(), 4),
    }
    for name, (ch, want) in ranks.items():
        got = int(np.sum(np.linalg.eigvalsh(choi_matrix(ch)) > 1e-10))
        assert got == want, f"{name}: choi rank {got} != {want}"


def test_max_action_deviation_detects_dephasing():
    assert max_action_deviation(identity_channel(2), dephasing_channel(0.0)) == pytest.approx(1.0, abs=1e-14)
    assert max_action_deviation(identity_channel(2), identity_channel(2)) == 0.0
    with pytest.raises(ValidationError, match="different spaces"):
        max_action_deviation(identity_channel(2), identity_channel(3))


def test_tensor_and_compose_channels(rng):
    a = ensembles.random_kraus_channel(2, 3, 2, rng)
    b = ensembles.random_kraus_channel(2, 2, 2, rng)
    rho_a = ensembles.random_density(2, rng)
    rho_b = ensembles.random_density(2, rng)
    prod = tensor_channels(a, b)
    want = np.kron(channel_action(a, rho_a.matrix), channel_action(b, rho_b.matrix))
    assert np.allclose(channel_action(prod, np.kron(rho_a.matrix, rho_b.matrix)), want, atol=1e-12)

    chain = compose_channels(b, a)
    direct = channel_action(a, channel_action(b, rho_b.matrix))
    assert np.allclose(channel_action(chain, rho_b.matrix), direct, atol=1e-12)
    with pytest.raises(ValidationError, match="cannot compose"):
        compose_channels(a, b)

    # the stacked families equal the per-pair loops, index i*len(B)+j, bit for bit
    for x, y in ((a, b), (b, a), (a, a)):
        want = np.array([np.kron(p, q) for p in x.kraus_ops for q in y.kraus_ops])
        assert np.array_equal(tensor_channels(x, y).stack, want)
    c = ensembles.random_kraus_channel(3, 4, 3, rng)
    for x, y in ((b, a), (a, c), (b, b)):
        want = np.array([q @ p for p in x.kraus_ops for q in y.kraus_ops])
        assert np.array_equal(compose_channels(x, y).stack, want)


def test_ordered_eigh_is_deterministic(rng):
    g = ensembles.crandn((5, 5), rng)
    h = g + dagger(g)
    vals1, vecs1 = ordered_eigh(h)
    vals2, vecs2 = ordered_eigh(h.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    assert np.allclose(vecs1 @ np.diag(vals1) @ dagger(vecs1), h, atol=1e-12)


def test_ordered_eigh_phase_convention(rng):
    g = ensembles.crandn((4, 4), rng)
    h = g + dagger(g)
    _, vecs = ordered_eigh(h)
    for k in range(4):
        col = vecs[:, k]
        pivot = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
        assert pivot.imag == pytest.approx(0.0, abs=1e-12)
        assert pivot.real > 0


def test_ordered_eigh_handles_degenerate_spectra():
    # a projector with a two-dimensional kernel still gets a reproducible basis
    p = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
    vals1, vecs1 = ordered_eigh(p)
    vals2, vecs2 = ordered_eigh(p)
    assert np.array_equal(vecs1, vecs2)
    assert np.allclose(vals1, [0.0, 0.0, 1.0], atol=1e-15)


def _sorted_key_eigh(h):
    """The tie-break before np.lexsort: Python sort on (eigenvalue, re/im entries) tuples,
    with each column phase-fixed on its own."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=np.complex128))
    cols = [_fix_phase(v[:, k]) for k in range(v.shape[1])]
    order = sorted(
        range(len(w)), key=lambda k: (w[k],) + tuple(x for z in cols[k] for x in (z.real, z.imag))
    )
    return np.array([w[k] for k in order]), np.column_stack([cols[k] for k in order])


def _degenerate_matrices(rng):
    yield np.eye(6)
    yield np.zeros((5, 5))
    yield np.diag([1.0, 0.0, 1.0, 0.0, 2.0, 0.0])
    yield np.kron(np.eye(4), np.full((3, 3), 1.0 / 3.0))
    u = ensembles.random_unitary(8, rng)
    yield u @ np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0]) @ dagger(u)
    frame = ensembles.random_isometry(3, 32, rng)
    yield frame @ dagger(frame)
    g = ensembles.crandn((40, 40), rng)
    yield g + dagger(g)


def test_ordered_eigh_matches_sorted_key_tie_break(rng):
    for h in _degenerate_matrices(rng):
        vals, vecs = ordered_eigh(h)
        want_vals, want_vecs = _sorted_key_eigh(h)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 216])
def test_ordered_eigh_matches_the_per_column_phase_loop(n, rng):
    """The one-pass phase fix equals _fix_phase column by column, bit for bit."""
    frame = ensembles.random_isometry(max(1, n // 2), n, rng)
    cases = [frame @ dagger(frame)]
    for _ in range(3):
        g = ensembles.crandn((n, n), rng)
        cases.append(g + dagger(g))
    for h in cases:
        vals, vecs = ordered_eigh(h)
        want_vals, want_vecs = _sorted_key_eigh(h)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)


def test_eigen_order_breaks_exact_ties_by_the_phase_fixed_entries(rng):
    w = np.array([2.0, 0.0, 2.0, -0.0, 1.0, 2.0])
    vecs, order = _eigen_order(w, ensembles.random_unitary(6, rng))
    key = lambda k: (w[k],) + tuple(x for z in vecs[:, k] for x in (z.real, z.imag))  # noqa: E731
    assert order.tolist() == sorted(range(6), key=key)
    distinct = np.array([3.0, -1.0, 0.5])
    assert _eigen_order(distinct, np.eye(3))[1].tolist() == [1, 2, 0]


def test_fix_phase_takes_vectors_and_leaves_zero_columns_alone(rng):
    m = ensembles.crandn((4, 3), rng)
    m[:, 1] = 0.0
    m[0, 2] = 0.0
    fixed = _fix_phase(m)
    assert np.array_equal(fixed[:, 1], np.zeros(4))
    assert np.all(np.isfinite(fixed))
    for k in (0, 2):
        assert np.array_equal(fixed[:, k], _fix_phase(m[:, k]))
    for pivot in (fixed[0, 0], fixed[1, 2]):
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0.0
    assert np.array_equal(_fix_phase(np.zeros(3, dtype=np.complex128)), np.zeros(3))


def test_ordered_eigh_breaks_ties_on_imaginary_parts(monkeypatch):
    """Tied columns that agree in every real part are ordered by their imaginary parts."""
    s = np.sqrt(0.5)
    basis = np.array([[s, s], [1j * s, -1j * s]])
    for cols in ([0, 1], [1, 0]):
        monkeypatch.setattr(np.linalg, "eigh", lambda h, v=basis[:, cols]: (np.zeros(2), v))
        vecs = ordered_eigh(np.zeros((2, 2)))[1]
        assert np.array_equal(vecs, _sorted_key_eigh(np.zeros((2, 2)))[1])
        assert np.array_equal(vecs, basis[:, [1, 0]])


def _loop_action_deviation(a, b):
    """One channel action per matrix unit and one trace norm each, as before batching."""
    worst = 0.0
    for i in range(a.d_in):
        for j in range(a.d_in):
            unit = np.zeros((a.d_in, a.d_in), dtype=np.complex128)
            unit[i, j] = 1.0
            worst = max(worst, trace_norm(channel_action(a, unit) - channel_action(b, unit)))
    return worst


# With d_out = 8, every pair has K_a + K_b < d_out and takes the QR-core path.
@pytest.mark.parametrize("d_in,d_out", [(3, 3), (2, 5), (4, 3), (3, 8), (2, 8)])
def test_max_action_deviation_matches_loop_oracle(d_in, d_out, rng):
    a = ensembles.random_kraus_channel(d_in, d_out, 2, rng)
    b = ensembles.random_kraus_channel(d_in, d_out, 3, rng)
    same = KrausChannel(tuple(np.sqrt(0.5) * x for x in a.kraus_ops + a.kraus_ops))
    for x, y in ((a, b), (b, a), (a, same)):
        got = max_action_deviation(x, y)
        assert got == pytest.approx(_loop_action_deviation(x, y), rel=0, abs=1e-12)
    assert max_action_deviation(a, b) > 0.1
    assert max_action_deviation(a, same) < 1e-12
    assert max_action_deviation(b, b) == 0.0


def test_opnorm_is_largest_singular_value():
    assert opnorm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    # of a stack, the largest over its matrices
    assert opnorm(np.stack([np.diag([3.0, -4.0]), np.diag([1.0, 5.0])])) == pytest.approx(5.0)


def test_ordered_eigh_of_an_empty_matrix():
    w, v = ordered_eigh(np.zeros((0, 0)))
    assert w.shape == (0,)
    assert v.shape == (0, 0)


def test_partial_isometry_must_be_a_matrix():
    with pytest.raises(ValidationError, match=r"partial isometry must be a matrix, got shape \(3,\)"):
        PartialIsometry(np.ones(3))


@pytest.mark.parametrize("dims", [(2.0, 3), (True, 6), (2, np.float64(3.0)), (2, None)], ids=repr)
def test_an_isometry_needs_integer_dimensions(dims):
    with pytest.raises(ValidationError, match=r"^StinespringIsometry: d_out and d_env must be integers, got \["):
        StinespringIsometry(np.eye(6, 2), *dims)
    # integers of numpy's type are stored as plain ints
    v = StinespringIsometry(np.eye(6, 2), np.int64(2), np.int32(3))
    assert (type(v.d_out), type(v.d_env)) == (int, int)


def test_an_isometry_of_input_dimension_zero_is_rejected():
    with pytest.raises(ValidationError, match=r"^isometry of shape \(6, 0\) has input dimension 0$"):
        StinespringIsometry(np.eye(6, 0), 2, 3)


@pytest.mark.parametrize("dim", [0, -1])
def test_identity_channel_needs_a_positive_dimension(dim):
    with pytest.raises(ValidationError, match=f"^dimension must be positive, got {dim}$"):
        identity_channel(dim)


@pytest.mark.parametrize("dim", [2.5, np.float64(2.0), None, "2", True], ids=repr)
def test_identity_channel_needs_an_integer_dimension(dim):
    with pytest.raises(ValidationError, match=r"^identity_channel: dim must be integers, got \["):
        identity_channel(dim)


def test_actions_reject_operands_of_the_wrong_shape():
    ch = KrausChannel((np.eye(3, 2),))
    with pytest.raises(ValidationError, match=r"channel expects a 2x2 input, got shape \(3, 3\)"):
        channel_action(ch, np.eye(3))
    with pytest.raises(ValidationError, match=r"dual action expects a 3x3 operator, got shape \(2, 2\)"):
        dual_action(ch, np.eye(2))
