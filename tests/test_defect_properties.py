"""Property test: the Frobenius-gated invariant check keeps the operator-norm verdict, member by member."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab.core import TOL_VALID, _defect_norms, opnorm  # noqa: E402

_SHAPES = st.tuples(st.sampled_from([(), (1,), (3,)]), st.integers(1, 12))
# opnorm / TOL_VALID, kept 1% away from 1 on either side
_RATIOS = st.one_of(st.floats(1e-3, 0.99), st.floats(1.01, 1e3))


@st.composite
def scaled_arrays(draw):
    """A matrix or a stack whose operator norm is a drawn multiple of TOL_VALID.

    ``flat`` singular values make the Frobenius norm sqrt(n) times the
    operator norm, so ratios in (1/sqrt(n), 1) put the Frobenius norm above
    TOL_VALID while the operator norm stays below it.
    """
    (stack, n), ratio = draw(_SHAPES), draw(_RATIOS)
    kind = draw(st.sampled_from(["random", "flat", "rank one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = stack + (n, n)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind != "random":
        u, _, vh = np.linalg.svd(m)
        svals = np.ones(n) if kind == "flat" else np.eye(1, n)[0]
        m = (u * svals) @ vh
    return m * (ratio * TOL_VALID / opnorm(m))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scaled_arrays())
def test_defect_keeps_the_operator_norm_verdict(m):
    stack = m if m.ndim == 3 else m[None]
    norms = _defect_norms(stack)
    exact = np.array([opnorm(member) for member in stack])
    rejected = exact > TOL_VALID
    assert (norms > TOL_VALID).tolist() == rejected.tolist()
    # A rejected member's norm is its exact operator norm, as a rejection message prints it.
    assert norms[rejected].tolist() == exact[rejected].tolist()


def test_defect_takes_the_gate_for_frobenius_norms_within_tol(monkeypatch):
    svds = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda m, *args, **kw: svds.append(m.shape) or norm(m, *args, **kw))
    # Frobenius norm 0.2 TOL_VALID: accepted at the gate
    assert _defect_norms(0.1 * TOL_VALID * np.eye(4)[None]).tolist() == [pytest.approx(0.2 * TOL_VALID)]
    assert svds == []
    # Frobenius norms 0.2, 3.6 and 0.2 TOL_VALID, operator norms 0.05, 0.9 and 0.05 TOL_VALID:
    # one SVD, of the middle member only, then all three are accepted
    stack = TOL_VALID * np.eye(16) * np.array([0.05, 0.9, 0.05])[:, None, None]
    norms = _defect_norms(stack)
    assert svds == [(1, 16, 16)]
    assert norms.tolist() == pytest.approx([0.2 * TOL_VALID, 0.9 * TOL_VALID, 0.2 * TOL_VALID])


def test_defect_of_a_member_that_is_not_finite_keeps_its_frobenius_norm(monkeypatch):
    svds = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda m, *args, **kw: svds.append(m.shape) or norm(m, *args, **kw))
    stack = np.stack([np.full((3, 3), np.inf), 2 * TOL_VALID * np.eye(3)])
    norms = _defect_norms(stack)
    assert svds == [(1, 3, 3)]
    assert norms.tolist() == [np.inf, pytest.approx(2 * TOL_VALID)]
