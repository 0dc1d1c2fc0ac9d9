"""Property tests: the minimal dilation and the Choi defect from the stacked Kraus
matrix agree with the Choi-matrix oracles."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab import ensembles  # noqa: E402
from channel_lab.core import KrausChannel, choi_matrix, dagger, ordered_eigh  # noqa: E402
from channel_lab.dilation import (  # noqa: E402
    CHOI_RANK_CUTOFF,
    isometry_from_kraus,
    kraus_from_isometry,
    minimal_stinespring,
)
from channel_lab.sequences import ChannelSequence, choi_defect  # noqa: E402


def _channel(d_in, d_out, n_ops, rank, rng):
    """A random channel with ``n_ops`` Kraus operators spanning only ``rank`` of them:
    a rank-``rank`` family mixed by a random (n_ops, rank) isometry."""
    base = ensembles.random_kraus_channel(d_in, d_out, rank, rng)
    mix = ensembles.random_isometry(rank, n_ops, rng)
    return KrausChannel(np.tensordot(mix, base.stack, axes=1))


@st.composite
def channels(draw):
    """Channels on 1-4 dims each side with 1..2*d_in*d_out + 1 Kraus operators,
    some families redundant (Choi rank below the operator count)."""
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rank = draw(st.integers(-(-d_in // d_out), d_in * d_out))
    n_ops = draw(st.integers(rank, 2 * d_in * d_out + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _channel(d_in, d_out, n_ops, rank, rng), rank


def _oracle(ch):
    """Kept eigenvalues and eigenvectors of the dense Choi matrix."""
    vals, vecs = ordered_eigh(choi_matrix(ch))
    keep = vals > CHOI_RANK_CUTOFF
    return vals[keep], vecs[:, keep]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(channels())
def test_minimal_stinespring_matches_the_choi_oracle(case):
    ch, rank = case
    v = minimal_stinespring(ch)
    vals, vecs = _oracle(ch)
    assert v.d_env == len(vals) == rank
    m = kraus_from_isometry(v).stack.reshape(v.d_env, -1)
    # the same Choi matrix, and Kraus vectors spanning the same kept eigenspace
    assert np.abs(m.T @ m.conj() - choi_matrix(ch)).max() < 1e-12
    q, _ = np.linalg.qr(m.T)
    assert np.abs(q @ dagger(q) - vecs @ dagger(vecs)).max() < 1e-12
    # well-separated eigenvalues fix each Kraus operator up to the phase convention
    if np.all(np.diff(vals) > 1e-3):
        oracle = isometry_from_kraus(
            KrausChannel((np.sqrt(vals) * vecs).T.reshape(-1, ch.d_out, ch.d_in))
        )
        assert np.abs(v.v - oracle.v).max() < 1e-12
    assert minimal_stinespring(ch).v.tobytes() == v.v.tobytes()


@st.composite
def channel_pairs(draw):
    """A term and a limit on the same dims whose Kraus counts add up to just below,
    exactly at, or above d_out*d_in, where the QR core's factor R stops having a
    row per operator and has d_out*d_in rows.  A pair with a one-operator family
    takes the Krylov path first."""
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dim, k_min = d_in * d_out, -(-d_in // d_out)
    side = draw(st.sampled_from(["below", "at", "above"]))
    low = {"below": 2 * k_min, "at": dim, "above": dim + 1}[side]
    high = {"below": dim - 1, "at": dim, "above": 2 * dim + 2}[side]
    total = draw(st.integers(max(low, 2 * k_min), max(high, 2 * k_min)))
    k_n = draw(st.integers(k_min, total - k_min))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for k in (k_n, total - k_n):
        rank = draw(st.integers(k_min, min(k, dim)))
        pair.append(_channel(d_in, d_out, k, rank, rng))
    return tuple(pair)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(channel_pairs())
def test_choi_defect_matches_the_dense_oracle(pair):
    term, limit = pair
    want = np.abs(np.linalg.eigvalsh(choi_matrix(term) - choi_matrix(limit))).sum() / limit.d_in
    seq = ChannelSequence(limit, lambda n: term)
    assert abs(choi_defect(seq, 1) - want) < 1e-12
    assert choi_defect(ChannelSequence(limit, lambda n: limit), 1) == 0.0
