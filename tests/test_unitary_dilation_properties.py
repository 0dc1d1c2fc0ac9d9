"""Property tests: the factored unitary dilation is unitary, extends the
isometry on the embedded subspace, models the channel, and survives a JSON
round trip; the kernel bases it is built from are exactly the kernel columns
of ``ordered_eigh``, the ancilla's one bit for bit.  U itself is pinned bit
for bit, signed zeros included, to the construction it replaced, written out
here as the reference."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from channel_lab import dilation, ensembles, serialize  # noqa: E402
from channel_lab.core import UnitaryOp  # noqa: E402
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


def _u_by_right_and_batched_product(v):
    """U as it was built before: R's columns in a ``right`` temporary, then the ancilla permutation as a batched product."""
    d_big = v.d_out * v.d_env
    ker_range = _kernel_basis(v.v @ dagger(v.v))
    n_spare = d_big * (v.d_in - 1)
    right = np.zeros((d_big, v.d_in, n_spare + ker_range.shape[1]), dtype=np.complex128)
    right[:, 1:, :n_spare] = np.eye(n_spare).reshape(d_big, v.d_in - 1, n_spare)
    right[:, 0, n_spare:] = ker_range
    cols = np.zeros((d_big, v.d_in, v.d_in, d_big), dtype=np.complex128)
    cols[:, 0, :, 0] = v.v
    cols[..., 1:] = right.reshape(d_big, v.d_in, v.d_in, d_big - 1)
    anc_basis = np.eye(d_big, dtype=np.complex128)[:, np.r_[0, d_big - 1 : 0 : -1]]
    n = v.d_in * d_big
    return (cols.reshape(n, v.d_in, d_big) @ dagger(anc_basis)).reshape(n, n)


@st.composite
def isometry_dims(draw):
    """(d_in, d_out, d_env, seed) with d_out * d_env >= d_in: d_in 1-4, d_out 1-4, d_env 1-5."""
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return d_in, d_out, draw(st.integers(-(-d_in // d_out), 5)), draw(st.integers(0, 2**32 - 1))


# d_in = 1 has no spare identity; d_out * d_env = d_in has no kernel columns.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(isometry_dims())
@example((1, 1, 1, 0))
@example((1, 3, 2, 1))
@example((3, 3, 1, 2))
@example((4, 2, 2, 3))
@example((6, 6, 6, 21))
def test_unitary_dilation_is_the_reference_construction_bit_for_bit(dims):
    d_in, d_out, d_env, seed = dims
    v = isometry_from_kraus(ensembles.random_kraus_channel(d_in, d_out, d_env, np.random.default_rng(seed)))
    u = unitary_from_isometry(v).u.u
    want = _u_by_right_and_batched_product(v)
    assert u.shape == want.shape and u.tobytes() == want.tobytes()


def test_the_built_and_the_loaded_unitary_are_kept_without_a_copy(tmp_path):
    # U reaches UnitaryOp read-only and owning its data, from the construction and
    # from a document alike, so the operator keeps the very array it is given.
    v = isometry_from_kraus(ensembles.random_kraus_channel(3, 2, 3, np.random.default_rng(4)))
    given_to_op, decoded = [], []
    decode = serialize.complex_from_json

    def op_spy(u):
        given_to_op.append(u)
        return UnitaryOp(u)

    def decode_spy(obj, ndim):
        decoded.append(decode(obj, ndim))
        return decoded[-1]

    with mock.patch.object(dilation, "UnitaryOp", op_spy):
        dil = dilation.unitary_from_isometry(v)
    assert dil.u.u is given_to_op[-1] and not dil.u.u.flags.writeable
    serialize.dump(dil, tmp_path / "dilation.json")
    with mock.patch.object(serialize, "complex_from_json", decode_spy):
        loaded = serialize.load(tmp_path / "dilation.json")
    assert loaded.u.u is decoded[0] and loaded.tau0 is decoded[1]
    assert np.array_equal(loaded.u.u, dil.u.u)
