import json
import re

import numpy as np
import pytest

from channel_lab import ensembles, serialize
from channel_lab.core import ValidationError, dephasing_channel
from channel_lab.dilation import isometry_from_kraus, unitary_from_isometry
from channel_lab.gaussian import (
    attenuator,
    attenuator_sequence,
    coherent_state,
    param_convergence_check,
)
from channel_lab.report import Report
from channel_lab.serialize import (
    SchemaError,
    complex_from_json,
    document,
    dump,
    from_json_obj,
    load,
    real_from_json,
)


def _pairs(m) -> list:
    """A complex array as nested [re, im] pairs, as a JSON file holds it."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def _plain_document(x) -> dict:
    """``serialize.document(x)`` with its arrays as plain lists, as a JSON file holds them."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in serialize.document(x).items()}


@pytest.mark.parametrize(
    "obj, shape",
    [
        ([[1, 2.5], [-0.0, 3]], (2, 2)),
        ([[], []], (2, 0)),
        ([], (0,)),
        (4, ()),
        (-0.0, ()),
        (json.loads("[-0, 5e-324, -5e-324, 1e308]"), (4,)),
        (np.arange(24.0).reshape(2, 3, 4).tolist(), (2, 3, 4)),
        ([[[[1, -0.0]]], [[[2.5, 3]]]], (2, 1, 1, 2)),
    ],
    ids=["ints-and-floats", "empty-rows", "empty", "scalar", "negative-zero-scalar", "edge-numbers", "rank-3", "rank-4"],
)
def test_real_arrays_are_nested_lists_of_numbers(obj, shape):
    a = real_from_json(obj, len(shape))
    assert a.dtype == np.float64 and a.shape == shape
    assert np.array_equal(a, np.asarray(obj, dtype=np.float64))
    assert np.array_equal(np.signbit(a), np.signbit(np.asarray(obj, dtype=np.float64)))


@pytest.mark.parametrize(
    "obj, message",
    [
        ([[1.0, [2.0]], [3.0, 4.0]], "entries must be numbers, got list"),
        ([[1.0, 2.0], (3.0, 4.0)], "not every item at depth 1 is a list of length 2"),
        ([[1.0, 2.0], [3.0]], "not every item at depth 1 is a list of length 2"),
        ([[1.0, 2.0], 3.0], "not every item at depth 1 is a list of length 2"),
        ([{"a": 1.0}], "entries must be numbers, got dict"),
        ([1.0, "2", None, False], "entries must be numbers, got NoneType, bool, str"),
        ([[1.0, 2.0], [[3.0], 4.0]], "entries must be numbers, got list"),
        ([[[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0]]], "not every item at depth 2 is a list of length 2"),
        ([[[[1.0], [2.0]]], [[[3.0], [4.0, 5.0]]]], "not every item at depth 3 is a list of length 1"),
        ([[[1.0], [2.0]], [3.0, [4.0]]], "not every item at depth 2 is a list of length 1"),
        ([[], [1.0]], "not every item at depth 1 is a list of length 0"),
        ([[True, 1.0]], "entries must be numbers, got bool"),
        ([["1", 2]], "entries must be numbers, got str"),
        ([[None, 2]], "entries must be numbers, got NoneType"),
        ([[{}, 2]], "entries must be numbers, got dict"),
        (True, "entries must be numbers, got bool"),
        ("abc", "entries must be numbers, got str"),
        (None, "entries must be numbers, got NoneType"),
        ([[10**400, 0.0]], "int too large to convert to float"),
        (-(10**400), "int too large to convert to float"),
    ],
    ids=[
        "list-entry",
        "tuple-row",
        "ragged",
        "number-row",
        "dict-entry",
        "three-kinds",
        "list-in-place-of-a-number",
        "ragged-at-depth-2",
        "ragged-at-depth-3",
        "ragged-and-mistyped-at-depth-2",
        "empty-first-row",
        "bool-entry",
        "str-entry",
        "null-entry",
        "empty-dict-entry",
        "bare-bool",
        "bare-str",
        "bare-null",
        "huge-int-entry",
        "bare-huge-int",
    ],
)
def test_real_arrays_reject_anything_else(obj, message):
    with pytest.raises(SchemaError, match=f"^not a numeric array: {re.escape(message)}$"):
        real_from_json(obj, 2)


def test_complex_array_round_trip(rng):
    for shape, ndim in (((4,), 1), ((3, 2), 2)):
        arr = ensembles.crandn(shape, rng)
        back = complex_from_json(_pairs(arr), ndim)
        assert np.array_equal(arr, back)
    with pytest.raises(SchemaError, match="rank-2"):
        complex_from_json([[1.0, 2.0]], 2)
    with pytest.raises(SchemaError, match="not a numeric array"):
        complex_from_json([["a", "b"]], 1)


def test_kraus_round_trip_preserves_operators(rng, tmp_path):
    ch = ensembles.random_kraus_channel(3, 2, 3, rng)
    path = tmp_path / "ch.json"
    dump(ch, path)
    back = load(path)
    assert len(back.kraus_ops) == 3
    for a, b in zip(ch.kraus_ops, back.kraus_ops):
        assert np.array_equal(a, b)


def test_stinespring_and_dilation_round_trips(rng, tmp_path):
    v = isometry_from_kraus(ensembles.random_kraus_channel(2, 2, 2, rng))
    dump(v, tmp_path / "v.json")
    back = load(tmp_path / "v.json")
    assert (back.d_out, back.d_env, back.d_in) == (2, 2, 2)
    assert np.array_equal(back.v, v.v)

    dil = unitary_from_isometry(v)
    dump(dil, tmp_path / "u.json")
    dback = load(tmp_path / "u.json")
    assert np.array_equal(dback.u.u, dil.u.u)
    assert np.array_equal(dback.tau0, dil.tau0)
    assert (dback.d_in, dback.d_anc, dback.d_out, dback.d_env) == (2, 4, 2, 4)


def test_gaussian_round_trips(tmp_path):
    st = coherent_state(1.0 + 0.5j)
    dump(st, tmp_path / "st.json")
    sback = load(tmp_path / "st.json")
    assert np.array_equal(sback.mean, st.mean)
    assert np.array_equal(sback.cov, st.cov)

    ch = attenuator(0.7)
    dump(ch, tmp_path / "ch.json")
    cback = load(tmp_path / "ch.json")
    assert np.array_equal(cback.scale, ch.scale)
    assert np.array_equal(cback.noise, ch.noise)


_SAMPLES = {
    "kraus": lambda: dephasing_channel(0.0),
    "stinespring": lambda: isometry_from_kraus(dephasing_channel(0.5)),
    "unitary-dilation": lambda: unitary_from_isometry(isometry_from_kraus(dephasing_channel(0.5))),
    "gaussian-state": lambda: coherent_state(1.0 + 0.5j),
    "gaussian-channel": lambda: attenuator(0.7),
}

#: Every integer field of every kind's document, with the error a value one
#: too high raises.  A field the decoder does not consume is cross-checked
#: against the data; one it passes to the constructor is rejected there.
_DECLARED = [
    ("kraus", "d_in", SchemaError, "declared d_in=3"),
    ("kraus", "d_out", SchemaError, "declared d_out=3"),
    ("stinespring", "d_in", SchemaError, "declared d_in=3"),
    ("stinespring", "d_out", ValidationError, "does not match d_out"),
    ("stinespring", "d_env", ValidationError, "does not match d_out"),
    ("unitary-dilation", "d_in", ValidationError, "dimension products disagree"),
    ("unitary-dilation", "d_anc", ValidationError, "dimension products disagree"),
    ("unitary-dilation", "d_out", ValidationError, "dimension products disagree"),
    ("unitary-dilation", "d_env", ValidationError, "dimension products disagree"),
    ("gaussian-state", "s", SchemaError, "declared s=2"),
    ("gaussian-channel", "s_in", SchemaError, "declared s_in=2"),
    ("gaussian-channel", "s_out", SchemaError, "declared s_out=2"),
]


def test_array_fields_are_the_arrays_of_every_kind():
    fields = {
        key
        for make in _SAMPLES.values()
        for key, value in serialize.document(make()).items()
        if isinstance(value, np.ndarray)
    }
    assert fields == serialize._ARRAY_FIELDS


def test_declared_dimension_cases_cover_every_integer_field():
    fields = {
        (kind, key)
        for kind, make in _SAMPLES.items()
        for key, value in serialize.document(make()).items()
        if isinstance(value, int) and key != "schema_version"
    }
    assert fields == {(kind, key) for kind, key, _, _ in _DECLARED}


@pytest.mark.parametrize(
    "kind, key, error, message", _DECLARED, ids=[f"{kind}-{key}" for kind, key, _, _ in _DECLARED]
)
def test_declared_dimensions_are_cross_checked(kind, key, error, message):
    doc = _plain_document(_SAMPLES[kind]())
    doc[key] += 1
    with pytest.raises(error, match=message):
        from_json_obj(doc)


def _report() -> Report:
    return param_convergence_check(attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5), [2, 3], eps=1e-6)


def test_reports_load_like_every_other_kind(tmp_path):
    rep = _report()
    path = tmp_path / "report.json"
    rep.write_json(path)
    loaded = load(path)
    assert isinstance(loaded, Report)
    assert loaded.to_json_dict() == rep.to_json_dict()


def test_other_schema_versions_are_rejected():
    doc = _plain_document(dephasing_channel(0.5))
    report = json.loads(json.dumps(_report().to_json_dict()))
    for version in (0, 2, "1", True, 1.5):
        for x in (doc, report):
            with pytest.raises(SchemaError, match="schema_version"):
                from_json_obj({**x, "schema_version": version})
    # an integral float is the current version, and a document without the field reads as it
    assert from_json_obj({**doc, "schema_version": 1.0}).d_in == 2
    del doc["schema_version"]
    assert from_json_obj(doc).d_in == 2


def test_structural_errors_raise_schema_error():
    for kind in ("mystery", [1], None):
        with pytest.raises(SchemaError, match="unknown kind"):
            from_json_obj({"kind": kind})
    with pytest.raises(SchemaError, match="missing field"):
        from_json_obj({"kind": "kraus"})
    with pytest.raises(SchemaError, match="nonempty list"):
        from_json_obj({"kind": "kraus", "kraus": []})
    # a ragged family is structural, like a ragged V or U
    ragged = [_pairs(np.eye(2)), _pairs(np.eye(3))]
    with pytest.raises(SchemaError, match="not a numeric array"):
        from_json_obj({"kind": "kraus", "kraus": ragged})
    with pytest.raises(SchemaError, match="expected a rank-3 complex array"):
        from_json_obj({"kind": "kraus", "kraus": [[[1.0, 0.0]]]})
    with pytest.raises(SchemaError, match="expected a JSON object"):
        from_json_obj([1, 2, 3])


def test_invariant_violations_raise_validation_error():
    doc = _plain_document(dephasing_channel(0.0))
    doc["kraus"][0][0][0] = [3.0, 0.0]
    with pytest.raises(ValidationError, match="trace preserving"):
        from_json_obj(doc)


def test_dump_is_deterministic_and_the_document_carries_metadata(tmp_path):
    ch = dephasing_channel(0.5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump(ch, a)
    dump(ch, b)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema_version"] == 1
    assert "metadata" not in doc
    # convert --out writes the document with its metadata block
    assert document(ch, {"note": "x"})["metadata"] == {"note": "x"}


def test_load_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load(path)


def test_objects_without_an_encoding_are_rejected():
    with pytest.raises(SchemaError, match="no JSON encoding for objects of type object"):
        serialize.document(object())
