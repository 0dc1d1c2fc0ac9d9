"""Property test: ``dump_json`` writes exactly what ``json.dump(indent=2, sort_keys=True)`` writes."""

import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from channel_lab.report import dump_json  # noqa: E402

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf")]
_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_leaves = st.none() | st.booleans() | st.integers() | _floats | st.text()
_EDGE_FLOATS32 = [-0.0, 0.0, 1e-45, -1e-45, 3.4028234663852886e38, float("nan"), float("inf"), float("-inf")]
_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
# float32 arrays take the same path as float64 ones: their tolist() holds Python floats.
_arrays = hnp.arrays(np.float64, _shapes, elements=_floats) | hnp.arrays(
    np.float32, _shapes, elements=st.floats(width=32) | st.sampled_from(_EDGE_FLOATS32)
)
# json sorts the keys before it spells them, so each dict draws keys of one type.
_key_types = [st.text(max_size=8), st.integers(), _floats, st.booleans(), st.none()]


def _containers(children):
    lists = st.lists(children, max_size=4)
    return st.one_of(
        lists,
        lists.map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in _key_types),
    )


_docs = st.recursive(_leaves | _arrays, _containers, max_leaves=24)


def _late_non_finite(dtype, value) -> np.ndarray:
    """Finite entries, except the last one of the last outer slice."""
    a = np.linspace(-2.5, 7.0, 12, dtype=dtype).reshape(3, 2, 2)
    a[-1, -1, -1] = value
    return a


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_docs)
@example(_late_non_finite(np.float64, float("nan")))
@example({"a": _late_non_finite(np.float32, float("-inf")), "b": [_late_non_finite(np.float64, float("inf"))]})
def test_dump_json_matches_the_stdlib_layout(doc):
    want = io.StringIO()
    json.dump(_plain(doc), want, indent=2, sort_keys=True)
    got = io.StringIO()
    dump_json(doc, got)
    assert got.getvalue() == want.getvalue() + "\n"


# Zero-dominated arrays, as a factored unitary dilation is: +0.0 fills every cell
# not drawn, and the drawn cells favour the values whose text must differ from "0.0".
def _sparse(dtype):
    info = np.finfo(dtype)
    tiny = float(info.smallest_subnormal)
    specials = st.sampled_from([-0.0, tiny, -tiny, float("nan"), float("inf"), float("-inf")])
    return hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=4),
        elements=specials | st.floats(width=info.bits),
        fill=st.just(0.0),
    )


_sparse_arrays = st.one_of(*(_sparse(dtype) for dtype in (np.float16, np.float32, np.float64)))
_sparse_docs = (
    _sparse_arrays
    | st.dictionaries(st.text(max_size=4), _sparse_arrays, min_size=1, max_size=3)
    | st.lists(_sparse_arrays | st.dictionaries(st.text(max_size=4), _sparse_arrays, max_size=2), min_size=1, max_size=3)
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_sparse_docs)
def test_zero_dominated_arrays_match_the_stdlib_layout(doc):
    want = io.StringIO()
    json.dump(_plain(doc), want, indent=2, sort_keys=True)
    got = io.StringIO()
    dump_json(doc, got)
    assert got.getvalue() == want.getvalue() + "\n"


# Float64 arrays of signed zeros: every cell not drawn is the fill, +0.0 or -0.0, and the
# drawn ones put the other zero, finite values, NaN and ±inf next to the shared "0.0" pieces.
_signed_zero_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=8),
    elements=st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]) | st.floats(),
    fill=st.sampled_from([0.0, -0.0]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_signed_zero_arrays)
def test_signed_zero_arrays_match_the_stdlib_layout(a):
    want = io.StringIO()
    json.dump(a.tolist(), want, indent=2, sort_keys=True)
    got = io.StringIO()
    dump_json(a, got)
    assert got.getvalue() == want.getvalue() + "\n"
