"""The Kraus sweep's block kernels write into the arrays they return.

Each kernel is pinned bit for bit to the construction it replaced, written
out here as the reference: the strong* norms to ``np.linalg.norm``, the
block's superoperator differences to a stack of ``choi_matrix`` results, the
compress term to a concatenation of heads and replacement branch, and the
Hermitian trace norm to the symmetrized copy, and a partial-trace form's
block of Kraus stacks to the per-index construction of W(n), ``W(n) V0`` and
its Kraus family.  The observable check decides "the matrix units in order"
on the stack itself.  ``tracemalloc`` tests bound what one compress report
and one 8/4/8 partial-trace-form report hold at once by a multiple of a
Choi matrix.
"""

import json
import tracemalloc

import numpy as np
import pytest

from channel_lab import ensembles, sequences
from channel_lab.core import (
    DensityOperator,
    StinespringIsometry,
    ValidationError,
    _kraus_matrix,
    _pure_parts,
    choi_matrix,
    dagger,
    identity_channel,
)
from channel_lab.sequences import (
    SWEEP_BLOCK_ENTRIES,
    ZERO_ROW_NORM,
    ChannelSequence,
    PartialTraceForm,
    choi_defects,
    compression_sequence,
    convergence_report,
    rotation_partial_trace_form,
    strong_defect,
    strongstar_defect,
)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _norms_by_linalg(ds, obs, vecs, d_in):
    """The strong* norms as ``np.linalg.norm`` takes them over the vector images."""
    rows = ds if obs is None else obs.conj().T @ ds
    images = rows.reshape(-1, d_in) @ vecs.conj()
    return np.linalg.norm(images.reshape(len(ds), rows.shape[1], d_in, -1), axis=2)


def _deltas_by_stack(terms, limit_choi):
    """``S_n - S_0`` from a stack of ``choi_matrix`` results minus the limit's."""
    d_out, d_in = terms[0].d_out, terms[0].d_in
    dj = np.stack([choi_matrix(t) for t in terms]) - limit_choi
    return dj.reshape(-1, d_out, d_in, d_out, d_in).transpose(0, 1, 3, 2, 4).reshape(-1, d_out**2, d_in**2)


def _term_by_concatenation(ch, sigma, r):
    """A compression term's Kraus stack: heads, then outer products, then their scaled copy, concatenated."""
    roots, vecs = _pure_parts(sigma)
    head = ch.stack.copy()
    head[:, r:] = 0
    rows = ch.stack[:, r:].reshape(-1, ch.d_in)
    rows = rows[np.linalg.norm(rows, axis=1) >= ZERO_ROW_NORM]
    outers = vecs.T[:, None, :, None] * rows[None, :, None, :]
    branch = roots[:, None, None, None] * outers
    return np.concatenate([head, branch.reshape(-1, ch.d_out, ch.d_in)])


def _givens_by_entries(dim, i, j, theta):
    """One plane rotation, its four entries written into an identity."""
    r = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(theta), np.sin(theta)
    r[i, i] = r[j, j] = c
    r[i, j], r[j, i] = -s, s
    return r


def _kraus_by_index(v0, w):
    """One term's Kraus stack from its W: ``W V0``, its rows read as (d_out, d_env, d_in), then (d_env, d_out, d_in)."""
    return (w @ v0.v).reshape(v0.d_out, v0.d_env, v0.d_in).transpose(1, 0, 2).copy()


def _random_w_form(d_in, d_out, d_env, count, rng):
    """A form whose W(n) is a fixed random unitary U_n times the embedding's range projector."""
    v0 = StinespringIsometry(np.eye(d_out * d_env, d_in), d_out, d_env)
    p0 = v0.v @ dagger(v0.v)
    us = np.stack([ensembles.random_unitary(d_out * d_env, rng) for _ in range(count)])
    return PartialTraceForm(v0, lambda ns: us[np.subtract(ns, 1)] @ p0), us @ p0


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _rotation_sequence(d_in, d_out, d_env):
    v0 = StinespringIsometry(np.eye(d_out * d_env, d_in), d_out, d_env)
    return rotation_partial_trace_form(v0, (d_out * d_env - 1, 0), lambda n: 1.0 / n)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("general", [False, True])
def test_dual_norms_are_the_linalg_norms_bit_for_bit_on_random_stacks(seed, general):
    rng = np.random.default_rng(seed)
    blocks, d_out, d_in = (int(x) for x in rng.integers(1, 5, size=3))
    ds = _crandn(rng, blocks, d_out**2, d_in**2)
    obs = _crandn(rng, d_out**2, int(rng.integers(1, 7))) if general else None
    vecs = _crandn(rng, d_in, int(rng.integers(1, 7)))
    got = sequences._dual_norms(ds, obs, vecs, d_in)
    want = _norms_by_linalg(ds, obs, vecs, d_in)
    assert _same_bits(got, want)


@pytest.mark.parametrize("d", [3, 6, 10])
def test_dual_norms_keep_exact_ties_and_their_first_maximizer_on_basis_probes(d):
    """Basis vectors against a compress block give many equal norms; the witness is the same first one."""
    seq = compression_sequence(identity_channel(d), DensityOperator(np.eye(d) / d), range(1, d + 1))
    ds = sequences._deltas(seq._kraus_groups(range(1, d + 1)), choi_matrix(seq.limit), d)
    vecs = np.eye(d, dtype=complex)
    got = sequences._dual_norms(ds, None, vecs, d).reshape(d, -1)
    want = _norms_by_linalg(ds, None, vecs, d).reshape(d, -1)
    assert _same_bits(got, want)
    assert (np.sum(got == got.max(axis=1, keepdims=True), axis=1) > 1).all()
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


def test_deltas_are_the_stacked_choi_construction_bit_for_bit(rng):
    """A form's block is one Kraus stack and one batched product; any other block a stack of one per term."""
    compress = compression_sequence(identity_channel(5), DensityOperator(np.eye(5) / 5), range(1, 6))
    for seq, ns in ((_rotation_sequence(8, 4, 8), tuple(range(1, 9))), (compress, tuple(range(1, 6)))):
        terms = [seq.term(n) for n in ns]
        limit_choi = choi_matrix(seq.limit)
        block = seq._kraus_groups(ns)
        assert [len(ms) for ms in block] == ([1] * len(ns) if seq is compress else [len(ns)])
        assert _same_bits(sequences._deltas(block, limit_choi, seq.limit.d_out), _deltas_by_stack(terms, limit_choi))
    base = ensembles.random_kraus_channel(3, 2, 4, rng)
    terms = [ensembles.random_kraus_channel(3, 2, k, rng) for k in (2, 4, 6)]
    got = sequences._deltas([_kraus_matrix(t)[None] for t in terms], choi_matrix(base), 2)
    assert _same_bits(got, _deltas_by_stack(terms, choi_matrix(base)))


def test_hermitian_trace_norm_is_the_symmetrized_copy_bit_for_bit(rng):
    h = _crandn(rng, 5, 7, 7)
    h = h + h.conj().swapaxes(-1, -2) + 1e-13 * _crandn(rng, 5, 7, 7)
    herm = (h + h.conj().swapaxes(-1, -2)) / 2
    want = np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)
    assert _same_bits(sequences._hermitian_trace_norm(h), want)
    assert _same_bits(sequences._hermitian_trace_norm(h[0]), want[0])


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_compress_term_stack_is_the_concatenated_construction_at_every_rank(d):
    """Rank d keeps every row, so its replacement branch is empty; rank 0 keeps none."""
    ch, sigma = identity_channel(d), DensityOperator(np.eye(d) / d)
    ranks = range(0, d + 1)
    seq = compression_sequence(ch, sigma, ranks)
    for n, r in enumerate(ranks, start=1):
        got = seq.term(n).stack
        assert _same_bits(got, _term_by_concatenation(ch, sigma, r))
        assert not got.flags.writeable
    assert len(seq.term(d + 1).stack) == 1


def test_compress_term_stack_is_the_concatenated_construction_on_a_mixed_base(rng):
    """A channel with several Kraus operators from dim 3 to dim 4, compressed with a rank-3 mixed sigma."""
    ch = ensembles.random_kraus_channel(3, 4, 3, rng)
    sigma = ensembles.random_density(4, rng, rank=3)
    assert len(_pure_parts(sigma)[0]) == 3
    ranks = range(0, 5)
    seq = compression_sequence(ch, sigma, ranks)
    for n, r in enumerate(ranks, start=1):
        assert _same_bits(seq.term(n).stack, _term_by_concatenation(ch, sigma, r))


def test_matrix_units_are_told_apart_without_an_identity():
    d = 3
    units = ensembles.matrix_unit_observables(d)
    assert sequences._unless_identity(units, d) is None
    permuted = units[np.roll(np.arange(d * d), 1)]
    scaled = units.copy()
    scaled[4] *= 2
    short = units[:-1]
    extra = np.concatenate([units, units[:1]])
    for stack in (permuted, scaled, short, extra):
        columns = sequences._unless_identity(stack, d)
        assert _same_bits(columns, sequences._probe_columns(stack, "test observable", (d, d)))
    with pytest.raises(ValidationError, match=r"test observable family has a member of shape \(3, 3\), the limit needs \(2, 2\)"):
        sequences._unless_identity(units, 2)


@pytest.mark.parametrize("shape", [(8, 4, 8), (3, 2, 6), (4, 2, 3)])
def test_form_blocks_are_the_per_index_construction_bit_for_bit(shape, rng):
    """A rotation form's block is its rotations, ``W V0`` and Kraus families built one index at a time;
    a random-W form's block is the per-index Kraus family of its W; each equals its blocks of one."""
    d_in, d_out, d_env = shape
    dim = d_out * d_env
    v0 = StinespringIsometry(np.eye(dim, d_in), d_out, d_env)
    p0 = v0.v @ dagger(v0.v)
    ns = tuple(range(1, 21))
    rotation = rotation_partial_trace_form(v0, (dim - 1, 0), lambda n: 1.0 / n)
    random_w, ws = _random_w_form(d_in, d_out, d_env, len(ns), rng)
    cases = (
        (rotation, [_givens_by_entries(dim, dim - 1, 0, 1.0 / n) @ p0 for n in ns]),
        (random_w, list(ws)),
    )
    for form, per_index in cases:
        block = form._kraus_block(ns)
        assert _same_bits(block, np.stack([_kraus_by_index(v0, w) for w in per_index]))
        assert _same_bits(block, np.concatenate([form._kraus_block((n,)) for n in ns]))
        seq = form
        assert all(_same_bits(seq.term(n).stack, block[k]) for k, n in enumerate(ns))
        assert _same_bits(form.isometry(3).v, per_index[2] @ v0.v)


def _form_cases(rng):
    """The 8/4/8 rotation form over 20 indices and a random-W 3/2/6 form over 60, each with its report's
    largest stack per term: 8/4/8's strong* images (16 x 8 x 10 vectors = 1280 > 32^2, 6 terms to a
    default block), 3/2/6's W stack (D^2 = 144 > (d_out d_in)^2 = 36, 56 terms to a default block)."""
    v0 = StinespringIsometry(np.eye(32, 8), 4, 8)
    rotation = rotation_partial_trace_form(v0, (31, 0), lambda n: 1.0 / n)
    random_w = _random_w_form(3, 2, 6, 60, rng)[0]
    return [(rotation, range(1, 21), 16 * 8 * 10), (random_w, range(1, 61), 12**2)]


def test_form_sweeps_are_bit_identical_at_every_block_size(rng, monkeypatch):
    """1, 3 and the default number of terms to a block give the same report and Choi column, bit for bit."""
    for seq, ns, largest in _form_cases(rng):
        monkeypatch.undo()
        probes = ensembles.default_probes(seq.limit.d_in, seq.limit.d_out, np.random.default_rng(3))
        images = seq.limit.d_out**2 * seq.limit.d_in * len(probes.vectors)
        default = seq._terms_per_block(images)
        assert default * largest <= SWEEP_BLOCK_ENTRIES < (default + 1) * largest
        sweeps = []
        for per_block in (1, 3, default):
            monkeypatch.setattr(sequences, "SWEEP_BLOCK_ENTRIES", per_block * largest)
            assert seq._terms_per_block(images) == per_block
            report = convergence_report(seq, ns, probes)
            sweeps.append((report.to_json_dict(), choi_defects(seq, ns).tobytes()))
        assert sweeps[0] == sweeps[1] == sweeps[2]


def test_a_form_and_its_sequence_of_terms_give_the_same_bits(rng):
    """A form's block is its one Kraus stack; ``ChannelSequence(form.limit, form.term)`` has one stack per term.
    The report, the Choi column and both single defects are the same bits either way, and a block holding
    index 0 takes the form term by term."""
    for form, ns, _ in _form_cases(rng):
        plain = ChannelSequence(form.limit, form.term)
        assert [len(ms) for ms in form._kraus_groups(tuple(ns))] == [len(ns)]
        assert [len(ms) for ms in plain._kraus_groups(tuple(ns))] == [1] * len(ns)
        assert [len(ms) for ms in form._kraus_groups((0, 1, 2))] == [1, 1, 1]
        probes = ensembles.default_probes(form.limit.d_in, form.limit.d_out, np.random.default_rng(5))
        sides = []
        for seq in (form, plain):
            sides.append((
                json.dumps(convergence_report(seq, ns, probes).to_json_dict()),
                json.dumps(convergence_report(seq, range(0, 4), probes).to_json_dict()),
                choi_defects(seq, ns).tobytes(),
                repr(strong_defect(seq, 7, probes.states)),
                repr(strongstar_defect(seq, 7, probes.observables, probes.vectors)),
            ))
        assert sides[0] == sides[1]


@pytest.mark.parametrize("k_0", [1, 4])
def test_terms_of_one_kraus_count_give_the_same_bits_as_one_stack_or_as_stacks_of_one(k_0, rng):
    """The grouping by Kraus count that a block of single-term stacks no longer makes: batched products, QR
    factors and eigenvalues act matrix by matrix, so one stack of the terms and a stack per term agree bit for bit.
    At k_0 = 1 the terms take Krylov, at 4 the QR core, with one term equal to the limit."""
    base = ensembles.random_kraus_channel(2, 3, k_0, rng)
    m_0 = _kraus_matrix(base)
    ms = [_kraus_matrix(ensembles.random_kraus_channel(2, 3, 4, rng)) for _ in range(5)] + [m_0] * (k_0 == 4)
    apart, together = [m[None] for m in ms], [np.stack(ms)]
    assert _same_bits(sequences._choi_gaps(apart, m_0), sequences._choi_gaps(together, m_0))
    limit_choi = choi_matrix(base)
    assert _same_bits(sequences._deltas(apart, limit_choi, 3), sequences._deltas(together, limit_choi, 3))


#: Allowed peak of one compress d=10 report, in blocks of 16 N^2 bytes (one Choi stack, N = d^2).
#: Kernels that build fresh block-sized temporaries reach 8.3 blocks; these reach 5.7.
PEAK_BLOCKS = 7


def test_a_compress_report_holds_a_few_block_stacks_at_once():
    d = 10
    seq = compression_sequence(identity_channel(d), DensityOperator(np.eye(d) / d), range(1, d + 1))
    probes = ensembles.default_probes(d, d, np.random.default_rng(7))
    convergence_report(seq, range(1, d + 1), probes)
    tracemalloc.start()
    try:
        convergence_report(seq, range(1, d + 1), probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 16 * (d * d) ** 2
    assert peak <= PEAK_BLOCKS * block, f"peak {peak / block:.2f} blocks"


#: Allowed peak of one 8/4/8 partial-trace-form report over indices 1..60, in blocks of 16 N^2 bytes
#: (one Choi matrix, N = d_out d_in = 32).  Its blocks of 6 terms reach 28.9; the per-index terms reached 33.5.
FORM_PEAK_BLOCKS = 40


def test_a_form_report_holds_a_few_block_stacks_at_once():
    v0 = StinespringIsometry(np.eye(32, 8), 4, 8)
    seq = rotation_partial_trace_form(v0, (31, 0), lambda n: 1.0 / n)
    probes = ensembles.default_probes(8, 4, np.random.default_rng(7))
    # D = N = 32: the W stacks are as large as the Choi stack; the strong* images, 16 x 8 x 10
    # entries per term, are the block's largest stack, and set 6 terms to a block.
    assert seq._terms_per_block(16 * 8 * 10) == 6 and 6 * 16 * 8 * 10 <= SWEEP_BLOCK_ENTRIES
    convergence_report(seq, range(1, 61), probes)
    tracemalloc.start()
    try:
        convergence_report(seq, range(1, 61), probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 16 * 32**2
    assert peak <= FORM_PEAK_BLOCKS * block, f"peak {peak / block:.2f} blocks"
