"""Property tests: the factored unitary dilation is unitary, extends the
isometry on the embedded subspace, models the channel, and survives a JSON
round trip; the kernel bases it is built from are exactly the kernel columns
of ``ordered_eigh``, the ancilla's one bit for bit."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab import ensembles, serialize  # noqa: E402
from channel_lab.core import dagger, max_action_deviation, opnorm, ordered_eigh  # noqa: E402
from channel_lab.dilation import (  # noqa: E402
    _kernel_basis,
    isometry_from_kraus,
    to_kraus,
    unitary_from_isometry,
)


@st.composite
def dilation_cases(draw):
    """A channel with d_in, d_out <= 3 and 1-4 Kraus operators.  ``unitary`` has
    one Kraus operator, so V is unitary (D = d_in) and d_anc can be 1."""
    mode = draw(st.sampled_from(["default", "unitary"]))
    d_in = draw(st.integers(1, 3))
    if mode == "unitary":
        d_out, n_ops = d_in, 1
    else:
        d_out = draw(st.integers(1, 3))
        n_ops = draw(st.integers(max(1, -(-d_in // d_out)), 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ensembles.random_kraus_channel(d_in, d_out, n_ops, rng)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(dilation_cases())
def test_unitary_dilation_round_trips(ch):
    v = isometry_from_kraus(ch)
    dil = unitary_from_isometry(v)
    u = dil.u.u
    big = v.d_out * v.d_env
    assert (dil.d_in, dil.d_anc, dil.d_out, dil.d_env) == (v.d_in, big, v.d_out, v.d_env * v.d_in)
    assert np.array_equal(dil.tau0, np.eye(big)[0])
    assert opnorm(dagger(u) @ u - np.eye(dil.u.dim)) <= 1e-12

    embed = np.kron(np.eye(v.d_in), dil.tau0.reshape(-1, 1))
    chi0 = np.eye(v.d_in)[:, :1]
    assert opnorm(u @ embed - np.kron(v.v, chi0)) <= 1e-12
    assert max_action_deviation(ch, to_kraus(dil)) <= 1e-10

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dilation.json"
        serialize.dump(dil, path)
        loaded = serialize.load(path)
    assert np.array_equal(loaded.u.u, u)
    assert np.array_equal(loaded.tau0, dil.tau0)
    assert (loaded.d_in, loaded.d_anc, loaded.d_out, loaded.d_env) == (
        dil.d_in, dil.d_anc, dil.d_out, dil.d_env,
    )


@st.composite
def projectors(draw):
    """A projector of dim 1-8 and rank 0..dim: diagonal 0/1 with the ones first
    or permuted (exact eigenvalue ties), or onto a Haar-random range."""
    dim = draw(st.integers(1, 8))
    rank = draw(st.integers(0, dim))
    mode = draw(st.sampled_from(["diagonal", "permuted", "haar"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if mode == "haar":
        frame = ensembles.random_unitary(dim, rng)[:, :rank]
        return frame @ dagger(frame)
    ones = np.arange(dim) < rank
    return np.diag(rng.permutation(ones) if mode == "permuted" else ones).astype(np.complex128)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(projectors())
def test_kernel_basis_is_the_kernel_half_of_ordered_eigh(p):
    vals, vecs = ordered_eigh(p)
    assert np.array_equal(_kernel_basis(p), vecs[:, vals < 0.5])


def test_ancilla_kernel_basis_is_the_reversed_unit_columns():
    # unitary_from_isometry uses T = (e_{D-1}, ..., e_1) as the kernel basis of
    # e_0 e_0*; it is the eigensolve's basis bit for bit, signed zeros included.
    for dim in range(1, 37):
        eye = np.eye(dim, dtype=np.complex128)
        got = _kernel_basis(eye[:, :1] @ eye[:1])
        want = eye[:, dim - 1 : 0 : -1]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), dim
