"""Both sides of every operator-norm invariant check at TOL_VALID.

Each check is fed a defect spread over many entries, whose operator norm is
within TOL_VALID while its Frobenius norm is not: it must be accepted.  A
defect of operator norm about 2 * TOL_VALID, and a larger Frobenius norm,
must be rejected with the exact operator norm in the message.
"""

import numpy as np
import pytest

from channel_lab.core import (
    TOL_VALID,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    UnitaryOp,
    ValidationError,
    dagger,
    opnorm,
)
from channel_lab.dilation import tracked_complete_unitary
from channel_lab.ensembles import random_isometry, random_unitary
from channel_lab.sequences import PartialTraceForm, choi_defects

SPREAD = 0.9 * TOL_VALID
OVER = 2.0 * TOL_VALID


def _assert_spread(defect):
    """Operator norm within TOL_VALID, Frobenius norm (of every matrix) above it."""
    assert opnorm(defect) <= TOL_VALID
    assert np.linalg.norm(defect, axis=(-2, -1)).min() > TOL_VALID


def _spread_levels(n, rng):
    return SPREAD * rng.choice([-1.0, 1.0], n)


def _over_levels(n):
    """One level at 2 * TOL_VALID; the rest keep the Frobenius norm apart from it."""
    levels = np.full(n, 0.5 * TOL_VALID)
    levels[0] = OVER
    return levels


def _root(q, levels):
    """The Hermitian square root of I + q diag(levels) q*, for a unitary q."""
    return (q * np.sqrt(1.0 + levels)) @ dagger(q)


def _rotation(e, f, angles):
    """Turn each column e[:, j] toward f[:, j] by angles[j]; the identity elsewhere."""
    c, s = np.cos(angles) - 1.0, np.sin(angles)
    return (
        np.eye(len(e))
        + (e * c) @ dagger(e)
        + (f * c) @ dagger(f)
        + (f * s) @ dagger(e)
        - (e * s) @ dagger(f)
    )


def _rejected(make) -> str:
    with pytest.raises(ValidationError) as err:
        make()
    return str(err.value)


@pytest.mark.parametrize("spread", [True, False])
def test_kraus_trace_preservation(spread, rng):
    q, v = random_unitary(16, rng), random_unitary(16, rng)
    root = _root(q, _spread_levels(16, rng) if spread else _over_levels(16))
    ops = [root / np.sqrt(2.0), v @ root / np.sqrt(2.0)]
    flat = np.array(ops).reshape(-1, 16)
    defect = dagger(flat) @ flat - np.eye(16)
    if spread:
        _assert_spread(defect)
        KrausChannel(ops)
    else:
        assert _rejected(lambda: KrausChannel(ops)) == (
            f"Kraus family is not trace preserving: ||sum A*A - I|| = {opnorm(defect):.3e}"
        )


@pytest.mark.parametrize("spread", [True, False])
def test_stinespring_isometry(spread, rng):
    levels = _spread_levels(12, rng) if spread else _over_levels(12)
    v = random_isometry(12, 24, rng) @ _root(random_unitary(12, rng), levels)
    defect = dagger(v) @ v - np.eye(12)
    if spread:
        _assert_spread(defect)
        StinespringIsometry(v, 3, 8)
    else:
        assert _rejected(lambda: StinespringIsometry(v, 3, 8)) == (
            f"V*V deviates from identity by {opnorm(defect):.3e}"
        )


@pytest.mark.parametrize("spread", [True, False])
def test_partial_isometry(spread, rng):
    # (W*W)^2 - W*W = (1 + d) d P for W = sqrt(1 + d) W0, with P of rank 16
    d = SPREAD if spread else OVER
    w = np.sqrt(1.0 + d) * random_isometry(16, 20, rng) @ dagger(random_isometry(16, 20, rng))
    p = dagger(w) @ w
    defect = p @ p - p
    if spread:
        _assert_spread(defect)
        PartialIsometry(w)
    else:
        assert _rejected(lambda: PartialIsometry(w)) == (
            f"W*W is not a projector (defect {opnorm(defect):.3e})"
        )


@pytest.mark.parametrize("spread", [True, False])
def test_unitary_both_sides(spread, rng):
    levels = _spread_levels(16, rng) if spread else _over_levels(16)
    u = random_unitary(16, rng) @ _root(random_unitary(16, rng), levels)
    eye = np.eye(16)
    left, right = dagger(u) @ u - eye, u @ dagger(u) - eye
    if spread:
        _assert_spread(left)
        _assert_spread(right)
        UnitaryOp(u)
    else:
        assert _rejected(lambda: UnitaryOp(u)) == (
            f"matrix is not unitary: ||U*U-I||={opnorm(left):.3e}, "
            f"||UU*-I||={opnorm(right):.3e}"
        )


def _embedding_and_rotation(spread, rng):
    """The 8 columns of a projector on dim 16, and a rotation of each of them into the
    complement by 0.9 TOL_VALID (spread) or by the over levels."""
    q = random_unitary(16, rng)
    angles = np.full(8, SPREAD) if spread else _over_levels(8)
    return q[:, :8], _rotation(q[:, :8], q[:, 8:], angles)


@pytest.mark.parametrize("spread", [True, False])
def test_partial_trace_form_drift(spread, rng):
    basis, rot = _embedding_and_rotation(spread, rng)
    v0 = StinespringIsometry(basis, 4, 4)
    w = PartialIsometry(v0.v @ dagger(v0.v) @ dagger(rot))
    form = PartialTraceForm(v0, lambda ns: np.stack([w.w] * len(ns)))
    defect = w.initial_projector - form.range0
    if spread:
        _assert_spread(defect)
        form.isometry(1)
    else:
        assert _rejected(lambda: form.isometry(1)) == (
            "term 1: initial projector deviates from the embedding range "
            f"by {opnorm(defect):.3e}"
        )


@pytest.mark.parametrize("spread", [True, False])
def test_partial_trace_form_drift_in_a_block(spread, rng):
    """The block rule gates each member on its own Frobenius norm: the drifted W at index 3 of
    indices 1..5 takes the operator-norm fallback and passes (spread) or is named (over)."""
    basis, rot = _embedding_and_rotation(spread, rng)
    v0 = StinespringIsometry(basis, 4, 4)
    p0 = v0.v @ dagger(v0.v)
    drifted = p0 @ dagger(rot)
    form = PartialTraceForm(v0, lambda ns: np.stack([drifted if n == 3 else p0 for n in ns]))
    seq = form
    defect = dagger(drifted) @ drifted - form.range0
    if spread:
        _assert_spread(defect)
        assert (choi_defects(seq, range(1, 6)) < 1e-8).all()
    else:
        assert _rejected(lambda: choi_defects(seq, range(1, 6))) == (
            f"term 3: initial projector deviates from the embedding range by {opnorm(defect):.3e}"
        )


@pytest.mark.parametrize("spread", [True, False])
def test_tracked_completion_drift(spread, rng):
    basis, rot = _embedding_and_rotation(spread, rng)
    p0 = basis @ dagger(basis)
    w_seq = [PartialIsometry(p0), PartialIsometry(p0 @ dagger(rot))]
    reference = UnitaryOp(np.eye(16))
    defect = w_seq[1].initial_projector - w_seq[0].initial_projector
    if spread:
        _assert_spread(defect)
        tracked_complete_unitary(w_seq, reference)
    else:
        assert _rejected(lambda: tracked_complete_unitary(w_seq, reference)) == (
            f"term 1 has a different initial projector (deviation {opnorm(defect):.3e})"
        )


@pytest.mark.parametrize("spread", [True, False])
def test_tracked_completion_reference_mismatch(spread, rng):
    basis, rot = _embedding_and_rotation(spread, rng)
    w = PartialIsometry(basis @ dagger(basis))
    reference = UnitaryOp(rot)
    defect = reference.u @ w.initial_projector - w.w
    if spread:
        _assert_spread(defect)
        tracked_complete_unitary([w], reference)
    else:
        assert _rejected(lambda: tracked_complete_unitary([w], reference)) == (
            f"reference does not complete the first term (deviation {opnorm(defect):.3e})"
        )
