"""The two paths of the Choi column: block Krylov and the QR core.

``sequences._choi_gaps`` tries Krylov first while the smaller Kraus count is
at most ``KRYLOV_MAX_BLOCK``, then the QR core, whatever the Kraus counts.
These tests check the Krylov solver against the dense eigenvalues, pin the
compress column to its closed form up to d = 32, and pin which path each
built-in family takes.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab import ensembles, sequences  # noqa: E402
from channel_lab.core import (  # noqa: E402
    DensityOperator,
    KrausChannel,
    StinespringIsometry,
    _kraus_matrix,
    identity_channel,
)


def _channel(d_in, d_out, n_ops, rank, rng):
    """A random channel with ``n_ops`` Kraus operators spanning only ``rank`` of them."""
    base = ensembles.random_kraus_channel(d_in, d_out, rank, rng)
    return KrausChannel(np.tensordot(ensembles.random_isometry(rank, n_ops, rng), base.stack, axes=1))


def _dense_gap(m_n, m_0):
    """``trace_norm(J_n - J_0)`` from the eigenvalues of the dense difference."""
    return np.abs(np.linalg.eigvalsh(m_n.T @ m_n.conj() - m_0.T @ m_0.conj())).sum()


@st.composite
def kraus_pairs(draw):
    """Stacked Kraus matrices of a term and a limit on 1-6 dims each side.

    One family has 1-3 operators, the other up to d_out*d_in + 1, and either
    one may be the smaller, so both sides of the inertia split are solved.
    """
    d_in, d_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dim, k_min = d_in * d_out, -(-d_in // d_out)
    small = draw(st.integers(k_min, max(k_min, 3)))
    big = draw(st.integers(small, max(small, dim + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = [_channel(d_in, d_out, k, draw(st.integers(k_min, min(k, dim))), rng) for k in (small, big)]
    if draw(st.booleans()):
        pair.reverse()
    return tuple(_kraus_matrix(ch) for ch in pair)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kraus_pairs())
def test_krylov_matches_the_dense_eigenvalues_and_every_step_is_a_lower_bound(pair):
    """The last bound is the value within 1e-12 of the larger of it and 1, and no
    step's bound exceeds it: by Cauchy interlacing each Ritz value lies above
    the eigenvalue of its rank, so every bound undershoots.  The 1e-12 allows
    for rounding only."""
    m_n, m_0 = pair
    want = _dense_gap(m_n, m_0)
    bounds = sequences._ritz_bounds(m_n, m_0)
    assert bounds is not None
    slack = 1e-12 * max(want, 1.0)
    assert abs(bounds[-1] - want) <= slack
    assert max(bounds) <= bounds[-1] + slack


def _compress(d):
    """The compression of the identity on C^d with the maximally mixed replacement state, ranks 1..d."""
    return sequences.compression_sequence(identity_channel(d), DensityOperator(np.eye(d) / d), range(1, d + 1))


def _paths(monkeypatch, run):
    """``run()`` and the counts of the Choi column's paths it took.

    ``krylov`` counts the Krylov solves that finished, ``fallback`` those that
    reached the step cap; ``qr`` counts the QR cores whose eigenvalues the
    other path takes.
    """
    counts = {"krylov": 0, "fallback": 0, "qr": 0}
    ritz, norms = sequences._ritz_bounds, sequences._hermitian_trace_norm

    def spy_ritz(m_n, m_0):
        bounds = ritz(m_n, m_0)
        counts["krylov" if bounds is not None else "fallback"] += 1
        return bounds

    def spy_norms(h):
        counts["qr"] += len(h)
        return norms(h)

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_ritz_bounds", spy_ritz)
        patch.setattr(sequences, "_hermitian_trace_norm", spy_norms)
        values = run()
    return counts, values


@pytest.mark.parametrize("d", [3, 4, 6, 8, 12, 16, 24, 32])
def test_compress_choi_column_matches_its_closed_form(d, monkeypatch):
    """``choi(r) = [(q d - 1)/d + sqrt((q - 1/d)^2 + 4 r q)] / d`` with q = d - r, and 0 at r = d.

    Derivation.  Term r keeps the block on the first r coordinates and
    replaces the rest by I/d: ``rho -> P rho P + Tr(Q rho) I/d`` with P the
    projector onto the first r coordinates and Q = I - P.  With
    ``Omega_r = sum_{i<r} e_i (x) e_i`` and ``Omega_q`` the same sum over
    i >= r, the Choi matrices are ``J_0 = Omega Omega*`` (Omega = Omega_r +
    Omega_q) and ``J_r = Omega_r Omega_r* + (I (x) Q)/d``, so
    ``J_r - J_0 = (I (x) Q)/d - Omega_r Omega_q* - Omega_q Omega_r* - Omega_q Omega_q*``.
    ``I (x) Q`` fixes Omega_q and kills Omega_r, so on the unit vectors
    ``Omega_r/sqrt(r)``, ``Omega_q/sqrt(q)`` the difference is the 2x2 block
    ``[[0, -sqrt(rq)], [-sqrt(rq), 1/d - q]]``, and on their complement it is
    ``(I (x) Q)/d``, a projector of rank ``q d - 1`` over d.  The block has
    trace ``1/d - q`` and determinant ``-rq < 0``, so one eigenvalue of each
    sign and trace norm ``sqrt((q - 1/d)^2 + 4 r q)``.  Adding the complement's
    ``(q d - 1)/d`` and dividing by d_in = d gives the column.  At fixed r it
    tends to 2 as d grows.  Every term takes the Krylov path (one Kraus
    operator in the limit) and none falls back.
    """
    r = np.arange(1, d + 1)
    q = d - r
    want = ((q * d - 1) / d + np.sqrt((q - 1 / d) ** 2 + 4 * r * q)) / d
    want[-1] = 0.0
    counts, got = _paths(monkeypatch, lambda: sequences.choi_defects(_compress(d), range(1, d + 1)))
    assert np.abs(got - want).max() <= 1e-12
    assert got[-1] == 0.0
    assert counts == {"krylov": d - 1, "fallback": 0, "qr": 0}


def _rotation_form(d_in, d_out, d_env):
    """The CLI's partial-trace-form sequence: the embedding rotated by 1/n in the plane (d_out*d_env - 1, 0)."""
    v0 = StinespringIsometry(np.eye(d_out * d_env, d_in), d_out, d_env)
    form = sequences.rotation_partial_trace_form(v0, (d_out * d_env - 1, 0), lambda n: 1.0 / n)
    return sequences.channels_from_partial_isometries(form)


def test_each_built_in_family_takes_its_path(monkeypatch):
    """Compress (k = 1) takes Krylov; the partial-trace forms (k = 3 at the default
    4/2/3 of the golden report, k = 8 at 8/4/8) and the swap embedding (k = 8 at
    d = 16, 15-dim input, 2-dim output) take the QR core.  So no term of the
    three golden reports falls back."""
    assert sequences.KRYLOV_MAX_BLOCK < 3
    counts, _ = _paths(monkeypatch, lambda: sequences.choi_defects(_compress(6), range(1, 7)))
    assert counts == {"krylov": 5, "fallback": 0, "qr": 0}
    counts, _ = _paths(monkeypatch, lambda: sequences.choi_defects(_rotation_form(4, 2, 3), [1, 10, 100, 1000]))
    assert counts == {"krylov": 0, "fallback": 0, "qr": 4}
    counts, _ = _paths(monkeypatch, lambda: sequences.choi_defects(_rotation_form(8, 4, 8), range(1, 61)))
    assert counts == {"krylov": 0, "fallback": 0, "qr": 60}
    counts, _ = _paths(monkeypatch, lambda: sequences.swap_report(16, 1))
    assert counts == {"krylov": 0, "fallback": 0, "qr": 15}


def test_the_step_cap_hands_every_term_on_to_the_qr_core(monkeypatch):
    """With the cap at 0 no Krylov solve finishes, and the compress column comes
    from the QR core (``K_n + K_0 = (d - r) d + 2 < d^2``) with the same values."""
    want = sequences.choi_defects(_compress(8), range(1, 9))
    monkeypatch.setattr(sequences, "KRYLOV_MAX_STEPS", 0)
    counts, got = _paths(monkeypatch, lambda: sequences.choi_defects(_compress(8), range(1, 9)))
    assert counts == {"krylov": 0, "fallback": 7, "qr": 7}
    assert np.abs(got - want).max() <= 1e-12


def test_the_step_cap_hands_a_large_pair_on_to_the_qr_core(monkeypatch):
    """A pair with ``K_n + K_0 >= d_out*d_in`` goes to the QR core too: at the cap
    its R is ``d_out*d_in`` by ``K_n + K_0``, and ``R diag(I, -I) R^H`` has the
    eigenvalues of the Choi difference, which no path builds."""
    term = _channel(3, 3, 9, 9, np.random.default_rng(3))
    seq = sequences.ChannelSequence(identity_channel(3), lambda n: term)
    want = _dense_gap(_kraus_matrix(term), _kraus_matrix(seq.limit)) / 3
    assert abs(sequences.choi_defect(seq, 1) - want) <= 1e-12
    monkeypatch.setattr(sequences, "KRYLOV_MAX_STEPS", 0)
    counts, got = _paths(monkeypatch, lambda: sequences.choi_defects(seq, [1]))
    assert counts == {"krylov": 0, "fallback": 1, "qr": 1}
    assert abs(got[0] - want) <= 1e-12


def test_compress_stops_when_its_krylov_basis_deflates():
    """On compress the start vector Omega/sqrt(d) and its image span the invariant
    plane of the 2x2 block, so the second step's new direction deflates and the
    solve stops after two steps with exact Ritz values.  A random pair stops on
    its residuals instead, before its basis could span the invariant subspace
    that holds the start block (of dimension K_n + K_0 for a generic pair)."""
    seq = _compress(12)
    m_0 = _kraus_matrix(seq.limit)
    for r in range(1, 12):
        assert len(sequences._ritz_bounds(_kraus_matrix(seq.term(r)), m_0)) == 2
    rng = np.random.default_rng(11)
    m_n, m_0 = (_kraus_matrix(_channel(6, 6, k, k, rng)) for k in (20, 1))
    bounds = sequences._ritz_bounds(m_n, m_0)
    assert len(bounds) < 21
    assert abs(bounds[-1] - _dense_gap(m_n, m_0)) <= 1e-12
