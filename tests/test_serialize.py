import json

import numpy as np
import pytest

from channel_lab import ensembles, serialize
from channel_lab.core import ValidationError, dephasing_channel
from channel_lab.dilation import isometry_from_kraus, unitary_from_isometry
from channel_lab.gaussian import attenuator, coherent_state
from channel_lab.serialize import (
    SchemaError,
    complex_from_json,
    complex_to_json,
    dump,
    from_json_obj,
    load,
    to_json_obj,
)


def test_complex_array_round_trip(rng):
    for shape, ndim in (((4,), 1), ((3, 2), 2)):
        arr = ensembles.crandn(shape, rng)
        back = complex_from_json(complex_to_json(arr), ndim)
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


def test_declared_dimensions_are_cross_checked():
    doc = to_json_obj(dephasing_channel(0.0))
    doc["d_in"] = 3
    with pytest.raises(SchemaError, match="declared d_in=3"):
        from_json_obj(doc)


def test_structural_errors_raise_schema_error():
    with pytest.raises(SchemaError, match="unknown kind"):
        from_json_obj({"kind": "mystery"})
    with pytest.raises(SchemaError, match="missing field"):
        from_json_obj({"kind": "kraus"})
    with pytest.raises(SchemaError, match="nonempty list"):
        from_json_obj({"kind": "kraus", "kraus": []})
    # a ragged family is structural, like a ragged V or U
    ragged = [complex_to_json(np.eye(2)), complex_to_json(np.eye(3))]
    with pytest.raises(SchemaError, match="not a numeric array"):
        from_json_obj({"kind": "kraus", "kraus": ragged})
    with pytest.raises(SchemaError, match="expected a rank-3 complex array"):
        from_json_obj({"kind": "kraus", "kraus": [[[1.0, 0.0]]]})
    with pytest.raises(SchemaError, match="expected a JSON object"):
        from_json_obj([1, 2, 3])


def test_invariant_violations_raise_validation_error():
    doc = to_json_obj(dephasing_channel(0.0))
    doc["kraus"][0][0][0] = [3.0, 0.0]
    with pytest.raises(ValidationError, match="trace preserving"):
        from_json_obj(doc)


def test_dump_is_deterministic_and_carries_metadata(tmp_path):
    ch = dephasing_channel(0.5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump(ch, a, metadata={"note": "x"})
    dump(ch, b, metadata={"note": "x"})
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["metadata"] == {"note": "x"}
    assert doc["schema_version"] == 1


def test_load_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load(path)
