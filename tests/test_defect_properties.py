"""Property test: the Frobenius-gated invariant check keeps the operator-norm verdict."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab import core  # noqa: E402
from channel_lab.core import TOL_VALID, ValidationError, _require_within, opnorm  # noqa: E402

_SHAPES = st.tuples(st.sampled_from([(), (1,), (3,)]), st.integers(1, 12))
# opnorm / TOL_VALID, kept 1% away from 1 on either side
_RATIOS = st.one_of(st.floats(1e-3, 0.99), st.floats(1.01, 1e3))


def _unexpected(norm: float) -> str:
    raise AssertionError(f"an accepted defect formed its rejection message ({norm:.3e})")


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
    if opnorm(m) <= TOL_VALID:
        _require_within(m, _unexpected)
        return
    with pytest.raises(ValidationError) as err:
        _require_within(m, lambda norm: f"defect {norm!r}")
    assert str(err.value) == f"defect {opnorm(m)!r}"


def test_defect_takes_the_gate_for_frobenius_norms_within_tol(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "opnorm", lambda m: calls.append(m) or opnorm(m))
    # Frobenius norm 0.2 TOL_VALID: accepted at the gate
    _require_within(0.1 * TOL_VALID * np.eye(4), _unexpected)
    assert calls == []
    # Frobenius norm 3.6 TOL_VALID, operator norm 0.9 TOL_VALID: one SVD, then accepted
    _require_within(0.9 * TOL_VALID * np.eye(16), _unexpected)
    assert len(calls) == 1
