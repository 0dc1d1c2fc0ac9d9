"""The Kraus sweep's block kernels write into the arrays they return.

Each kernel is pinned bit for bit to the construction it replaced, written
out here as the reference: the strong* norms to ``np.linalg.norm``, the
block's superoperator differences to a stack of ``choi_matrix`` results, the
compress term to a concatenation of heads and replacement branch, and the
Hermitian trace norm to the symmetrized copy.  The observable check decides
"the matrix units in order" on the stack itself.  A ``tracemalloc`` test
bounds what one compress report holds at once by a multiple of one block's
Choi stack.
"""

import tracemalloc

import numpy as np
import pytest

from channel_lab import ensembles, sequences
from channel_lab.core import (
    DensityOperator,
    StinespringIsometry,
    ValidationError,
    _pure_parts,
    choi_matrix,
    identity_channel,
)
from channel_lab.sequences import (
    ZERO_ROW_NORM,
    channels_from_partial_isometries,
    compression_sequence,
    convergence_report,
    rotation_partial_trace_form,
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


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _rotation_sequence(d_in, d_out, d_env):
    v0 = StinespringIsometry(np.eye(d_out * d_env, d_in), d_out, d_env)
    return channels_from_partial_isometries(rotation_partial_trace_form(v0, (d_out * d_env - 1, 0), lambda n: 1.0 / n))


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
    terms = [seq.term(n) for n in range(1, d + 1)]
    ds = sequences._deltas(terms, choi_matrix(seq.limit))
    vecs = np.eye(d, dtype=complex)
    got = sequences._dual_norms(ds, None, vecs, d).reshape(d, -1)
    want = _norms_by_linalg(ds, None, vecs, d).reshape(d, -1)
    assert _same_bits(got, want)
    assert (np.sum(got == got.max(axis=1, keepdims=True), axis=1) > 1).all()
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


def test_deltas_are_the_stacked_choi_construction_bit_for_bit(rng):
    compress = compression_sequence(identity_channel(5), DensityOperator(np.eye(5) / 5), range(1, 6))
    for seq, ns in ((_rotation_sequence(8, 4, 8), range(1, 9)), (compress, range(1, 6))):
        terms = [seq.term(n) for n in ns]
        limit_choi = choi_matrix(seq.limit)
        assert _same_bits(sequences._deltas(terms, limit_choi), _deltas_by_stack(terms, limit_choi))
    base = ensembles.random_kraus_channel(3, 2, 4, rng)
    terms = [ensembles.random_kraus_channel(3, 2, k, rng) for k in (2, 4, 6)]
    assert _same_bits(sequences._deltas(terms, choi_matrix(base)), _deltas_by_stack(terms, choi_matrix(base)))


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
