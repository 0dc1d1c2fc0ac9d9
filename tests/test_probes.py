"""The probe object of a convergence report: its draws, its validation and its stacks."""

import dataclasses
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab import ensembles  # noqa: E402
from channel_lab.core import KrausChannel, ValidationError, identity_channel  # noqa: E402
from channel_lab.ensembles import Probes, default_probes  # noqa: E402
from channel_lab.sequences import (  # noqa: E402
    ChannelSequence,
    convergence_report,
    strong_defect,
    strongstar_defect,
)


def _generated(d_in: int, d_out: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three default family generators on one seed: states drawn before vectors."""
    rng = np.random.default_rng(seed)
    states = ensembles.default_test_states(d_in, rng)
    observables = ensembles.matrix_unit_observables(d_out)
    vectors = ensembles.default_test_vectors(d_in, rng)
    return states, observables, vectors


def _written_out(d_in: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The default states and vectors drawn and normalized draw by draw, as the rule reads."""
    rng = np.random.default_rng(seed)
    basis = list(np.eye(d_in, dtype=np.complex128))
    draws = []
    for _ in range(4):
        v = rng.standard_normal(d_in) + 1j * rng.standard_normal(d_in)
        draws.append(v / np.linalg.norm(v))
    states = []
    for v in basis + draws:
        u = v / np.linalg.norm(v)
        states.append(np.outer(u, u.conj()))
    vectors = list(basis)
    for _ in range(2):
        v = rng.standard_normal(d_in) + 1j * rng.standard_normal(d_in)
        vectors.append(v / np.linalg.norm(v))
    return np.array(states), np.array(vectors)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_default_probes_are_the_generated_families_bit_for_bit(d_in, d_out, seed):
    probes = default_probes(d_in, d_out, np.random.default_rng(seed))
    generated = _generated(d_in, d_out, seed)
    for got, want in zip((probes.states, probes.observables, probes.vectors), generated):
        assert _same_bits(got, want)
    rebuilt = Probes(*generated)
    for name in ("states", "observables", "vectors"):
        assert _same_bits(getattr(rebuilt, name), getattr(probes, name))
    states, vectors = _written_out(d_in, seed)
    assert _same_bits(probes.states, states)
    assert _same_bits(probes.vectors, vectors)
    assert probes.states.shape == (d_in + 4, d_in, d_in)
    assert probes.observables.shape == (d_out * d_out, d_out, d_out)
    assert probes.vectors.shape == (d_in + 2, d_in)


def test_probe_stacks_are_read_only_and_the_object_is_frozen(rng):
    probes = default_probes(3, 2, rng)
    for stack in (probes.states, probes.observables, probes.vectors):
        assert not stack.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        probes.states = probes.states


def test_default_probes_call_each_traced_generator_once(monkeypatch):
    """``default_probes`` reaches the generators through the module, so a wrapper set there sees each call."""
    calls = []
    for name in ("default_test_states", "matrix_unit_observables"):
        original = getattr(ensembles, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(ensembles, name, counted)
    default_probes(3, 2, np.random.default_rng(0))
    assert sorted(calls) == ["default_test_states", "matrix_unit_observables"]


def test_sequences_of_arrays_and_stacks_give_the_same_probes(rng):
    states = ensembles.default_test_states(3, rng)
    obs = ensembles.matrix_unit_observables(2)
    vecs = ensembles.default_test_vectors(3, rng)
    stacked = Probes(states, obs, vecs)
    listed = Probes(list(states), list(obs), list(vecs))
    for name, want in (("states", states), ("observables", obs), ("vectors", vecs)):
        assert _same_bits(getattr(stacked, name), want)
        assert _same_bits(getattr(listed, name), want)


def test_default_families_reach_probes_without_a_copy(rng):
    """Each generator builds its stack read-only; ``Probes`` and ``default_probes`` keep that very array."""
    states, obs, vecs = _generated(3, 2, 5)
    probes = Probes(states, obs, vecs)
    assert probes.states is states and probes.observables is obs and probes.vectors is vecs
    for stack in (states, obs, vecs):
        assert stack.base is None and not stack.flags.writeable


def test_a_callers_later_write_never_reaches_probes_or_a_channel(rng):
    """Writable arrays, lists of them and read-only views of writable arrays are all copied."""
    good = default_probes(2, 2, np.random.default_rng(3))
    owned = {name: getattr(good, name).copy() for name in ("states", "observables", "vectors")}
    views = {}
    for name, a in owned.items():
        views[name] = a.view()
        views[name].setflags(write=False)
    for family in (owned, views, {name: list(a) for name, a in owned.items()}):
        probes = Probes(**family)
        for a in owned.values():
            a[0] = 7.0
        for name in owned:
            assert _same_bits(getattr(probes, name), getattr(good, name))
            assert not np.shares_memory(getattr(probes, name), owned[name])
        for name, a in owned.items():
            a[...] = getattr(good, name)
    ch = ensembles.random_kraus_channel(2, 2, 3, rng)
    source = np.array(ch.stack)
    frozen_view = source.view()
    frozen_view.setflags(write=False)
    kept = [KrausChannel(source), KrausChannel(frozen_view), KrausChannel(list(source))]
    source[0, 0, 0] += 1.0
    for got in kept:
        assert _same_bits(got.stack, ch.stack)
    assert KrausChannel(ch.stack).stack is ch.stack


def _families(**bad) -> dict:
    """Valid families on d_in = 2 and d_out = 2, as writable stacks, with ``bad`` swapped in."""
    good = default_probes(2, 2, np.random.default_rng(3))
    families = {name: getattr(good, name).copy() for name in ("states", "observables", "vectors")}
    return {**families, **bad}


def _with(stack: np.ndarray, k: int, member) -> np.ndarray:
    out = stack.copy()
    out[k] = member
    return out


_STATES = _families()["states"]
_INVALID = {
    "non-Hermitian state": (
        {"states": _with(_STATES, 2, [[0.5, 1.0], [0.0, 0.5]])},
        "test state 2 is not Hermitian (deviation 1.000e+00)",
    ),
    "negative eigenvalue": (
        {"states": _with(_STATES, 1, np.diag([1.5, -0.5]))},
        "test state 1 has negative eigenvalue -5.000e-01",
    ),
    "trace other than 1": (
        {"states": _with(_STATES, 4, np.diag([0.7, 0.7]))},
        "test state 4 has trace 1.4+0j, expected 1",
    ),
    "first of two broken states": (
        {"states": _with(_with(_STATES, 5, np.diag([0.7, 0.7])), 3, np.diag([0.6, 0.6]))},
        "test state 3 has trace 1.2+0j, expected 1",
    ),
    "non-finite state": (
        {"states": _with(_STATES, 3, [[np.nan, 0.0], [0.0, 1.0]])},
        "test state 3 contains non-finite entries",
    ),
    "non-finite observable": (
        {"observables": _with(_families()["observables"], 1, [[0.0, np.inf], [0.0, 0.0]])},
        "test observable 1 contains non-finite entries",
    ),
    "non-finite vector": (
        {"vectors": _with(_families()["vectors"], 2, [1.0, -np.inf])},
        "test vector 2 contains non-finite entries",
    ),
    "empty state family": ({"states": []}, "empty test state family"),
    "empty observable stack": ({"observables": np.zeros((0, 2, 2))}, "empty test observable family"),
    "empty vector family": ({"vectors": []}, "empty test vector family"),
    "member of another shape": (
        {"observables": [np.eye(2)] * 3 + [np.eye(3)]},
        "test observable 3 has shape (3, 3), test observable 0 has (2, 2)",
    ),
    "vector member of another shape": (
        {"vectors": [np.ones(2), np.ones(3)]},
        "test vector 1 has shape (3,), test vector 0 has (2,)",
    ),
    "non-square states": (
        {"states": np.zeros((2, 2, 3))},
        "test state family has members of shape (2, 3), expected nonempty square matrices",
    ),
    "matrices as vectors": (
        {"vectors": np.eye(2)[None]},
        "test vector family has members of shape (2, 2), expected nonempty vectors",
    ),
    "a single state, not a stack": (
        {"states": np.eye(2) / 2},
        "test state family has members of shape (2,), expected nonempty square matrices",
    ),
}


def _unbuildable(n: int):
    raise AssertionError(f"term {n} was built")


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_each_invariant_violation_is_rejected_before_any_term_is_built(case):
    bad, message = _INVALID[case]
    seq = ChannelSequence(identity_channel(2), _unbuildable)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        convergence_report(seq, [1, 2], Probes(**_families(**bad)))


def _single_defect(family: str, bad, n=1) -> float:
    """The one single defect that reads ``family``, given ``bad`` for it and valid other families."""
    families = {**_families(), family: bad}
    seq = ChannelSequence(identity_channel(2), _unbuildable)
    if family == "states":
        return strong_defect(seq, n, families["states"])
    return strongstar_defect(seq, n, families["observables"], families["vectors"])


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_each_invariant_violation_is_rejected_by_the_single_defect_before_any_term_is_built(case):
    bad, message = _INVALID[case]
    ((family, members),) = bad.items()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _single_defect(family, members)


@pytest.mark.parametrize("family, defect", [("states", "strong_defect"), ("observables", "strongstar_defect")])
@pytest.mark.parametrize("index", [True, 1.5, np.float64(1.0)])
def test_a_single_defect_index_that_is_not_an_integer_is_rejected_before_any_term_is_built(family, defect, index):
    message = f"{defect}: index must be integers, got {[index]!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _single_defect(family, _families()[family], index)


@pytest.mark.parametrize(
    "family, wrong, message",
    [
        ("states", np.eye(3)[None] / 3, "test state family has a member of shape (3, 3), the limit needs (2, 2)"),
        ("observables", np.eye(2)[None], "test observable family has a member of shape (2, 2), the limit needs (4, 4)"),
        ("vectors", np.ones((1, 4)), "test vector family has a member of shape (4,), the limit needs (2,)"),
    ],
)
def test_probes_on_the_wrong_spaces_are_rejected_before_any_term_is_built(family, wrong, message):
    # d_in = 2, d_out = 4: states and vectors act on d_in, observables on d_out
    limit = ensembles.random_kraus_channel(2, 4, 2, np.random.default_rng(5))
    probes = Probes(**{**_families(observables=np.eye(16).reshape(-1, 4, 4)), family: wrong})
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        convergence_report(ChannelSequence(limit, _unbuildable), [1], probes)
