"""Property test: batched characteristic functions and the dual chain identity."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from channel_lab.gaussian import (  # noqa: E402
    GaussianChannel,
    GaussianState,
    apply_gaussian,
    char_fn,
    dual_weyl_symbol,
    symplectic_form,
    validate_channel,
    validate_state,
    z_grid,
)

_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def valid_pairs(draw):
    """A valid (state, channel) pair at 1-3 modes each side, built like acceptance criterion 8."""
    s_in = draw(st.integers(1, 3))
    s_out = draw(st.integers(1, 3))
    d_in, d_out = 2 * s_in, 2 * s_out
    k = draw(arrays(np.float64, (d_in, d_out), elements=_ENTRIES))
    noise_seed = draw(arrays(np.float64, (d_out, d_out), elements=_ENTRIES))
    bracket = symplectic_form(s_out) - k.T @ symplectic_form(s_in) @ k
    pad = float(np.linalg.norm(bracket, 2))
    ch = GaussianChannel(
        scale=k,
        shift=draw(arrays(np.float64, (d_out,), elements=_ENTRIES)),
        noise=noise_seed @ noise_seed.T + pad * np.eye(d_out),
    )
    cov_seed = draw(arrays(np.float64, (d_in, d_in), elements=_ENTRIES))
    state = GaussianState(
        mean=draw(arrays(np.float64, (d_in,), elements=_ENTRIES)),
        cov=cov_seed @ cov_seed.T + np.eye(d_in),
    )
    return state, ch


@settings(derandomize=True, max_examples=50, deadline=None)
@given(valid_pairs())
def test_batched_char_fn_and_chain_identity_on_valid_pairs(pair):
    state, ch = pair
    assert validate_state(state).ok and validate_channel(ch).ok
    out = apply_gaussian(ch, state)
    grid = z_grid(ch.modes_out, half_width=1.0, step=0.5, max_points=40)
    batched = char_fn(out, grid)
    assert np.allclose(batched, [char_fn(out, z) for z in grid], rtol=0, atol=1e-12)
    for z, value in zip(grid, batched):
        point, factor = dual_weyl_symbol(ch, z)
        assert abs(value - char_fn(state, point) * factor) <= 1e-12
