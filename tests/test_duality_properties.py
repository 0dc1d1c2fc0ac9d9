"""Property tests: the dual map is the Hilbert-Schmidt adjoint of the channel,
and the superoperator S reshuffled from the Choi matrix presents both maps,
``vec(ch(X)) = S vec(X)`` and ``vec(ch*(B)) = S^H vec(B)``.  The second
identity is what the strong* kernel relies on for matrix-unit observables."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab import ensembles  # noqa: E402
from channel_lab.core import channel_action, choi_matrix, dual_action  # noqa: E402


@st.composite
def duality_cases(draw):
    """A channel with d_in, d_out <= 4 and at most 5 Kraus operators, and
    non-Hermitian operators B on the output and X on the input."""
    d_in = draw(st.integers(1, 4))
    d_out = draw(st.integers(1, 4))
    n_ops = draw(st.integers(-(-d_in // d_out), 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ch = ensembles.random_kraus_channel(d_in, d_out, n_ops, rng)
    b = ensembles.crandn((d_out, d_out), rng)
    x = ensembles.crandn((d_in, d_in), rng)
    return ch, b, x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(duality_cases())
def test_dual_action_is_the_adjoint_of_the_channel(case):
    ch, b, x = case
    assert abs(np.trace(b @ channel_action(ch, x)) - np.trace(dual_action(ch, b) @ x)) <= 1e-12

    # S[(a,b),(i,j)] = J[(a,i),(b,j)], with row-major vec.
    d_in, d_out = ch.d_in, ch.d_out
    s = choi_matrix(ch).reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
    s = s.reshape(d_out**2, d_in**2)
    assert np.abs(s @ x.ravel() - channel_action(ch, x).ravel()).max() <= 1e-12
    assert np.abs(s.conj().T @ b.ravel() - dual_action(ch, b).ravel()).max() <= 1e-12
