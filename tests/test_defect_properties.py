"""Property test: the Frobenius-gated defect keeps the operator-norm verdict."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab.core import TOL_VALID, _defect, opnorm  # noqa: E402

_SHAPES = st.tuples(st.sampled_from([(), (1,), (3,)]), st.integers(1, 12))
# opnorm / tol, kept 1% away from 1 on either side
_RATIOS = st.one_of(st.floats(1e-3, 0.99), st.floats(1.01, 1e3))


@st.composite
def scaled_arrays(draw):
    """A matrix or a stack whose operator norm is a drawn multiple of a drawn tol.

    ``flat`` singular values make the Frobenius norm sqrt(n) times the
    operator norm, so ratios in (1/sqrt(n), 1) put the Frobenius norm above
    tol while the operator norm stays below it.
    """
    (stack, n), ratio = draw(_SHAPES), draw(_RATIOS)
    tol = draw(st.sampled_from([TOL_VALID, 1e-3, 1.0]))
    kind = draw(st.sampled_from(["random", "flat", "rank one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = stack + (n, n)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind != "random":
        u, _, vh = np.linalg.svd(m)
        svals = np.ones(n) if kind == "flat" else np.eye(1, n)[0]
        m = (u * svals) @ vh
    return m * (ratio * tol / opnorm(m)), tol


@settings(max_examples=300, deadline=None)
@given(scaled_arrays())
def test_defect_keeps_the_operator_norm_verdict(case):
    m, tol = case
    got = _defect(m, tol)
    assert (got > tol) == (opnorm(m) > tol)
    if got > tol:
        assert got == opnorm(m)


def test_defect_takes_the_gate_for_frobenius_norms_within_tol():
    # within tol the Frobenius norm is returned, no SVD needed
    small = 0.1 * TOL_VALID * np.eye(4)
    assert _defect(small, TOL_VALID) == pytest.approx(0.2 * TOL_VALID, rel=1e-15)
    flat = 0.9 * TOL_VALID * np.eye(16)
    assert _defect(flat, TOL_VALID) == opnorm(flat)
