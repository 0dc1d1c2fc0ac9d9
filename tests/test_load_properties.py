"""Differential test: ``serialize.load`` reads every document as ``from_json_obj(json.loads(text))`` does.

``load`` reads the array fields of a document's top-level object straight
into float64 arrays.  Whatever the layout, the spelling of the numbers or a
broken token, the result must be the old path's: the same domain object,
its arrays equal bit for bit, or the same exception type and message.
Complex arrays are then assembled by ``complex_from_json``, which must give
the bits of ``re + 1j * im`` on finite parts and no NaN or warning on
infinite ones.
"""

import json
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays, array_shapes  # noqa: E402

from channel_lab import ensembles, serialize  # noqa: E402
from channel_lab.dilation import isometry_from_kraus, unitary_from_isometry  # noqa: E402
from channel_lab.serialize import SchemaError, complex_from_json, from_json_obj, load  # noqa: E402

DATA = Path(__file__).parent / "data"

BIG_INT = "1" + "0" * 400
#: JSON number spellings whose value or sign a reader could get wrong.
_EDGE_NUMBERS = ["0", "-0", "0.0", "-0.0", str(2**70), str(2**63 + 1), BIG_INT,
                 "5e-324", "-5e-324", "1e400", "-1e400", "1E+2", "1e-2", "0e5", "-0E-5"]
_numbers = (
    st.sampled_from(_EDGE_NUMBERS)
    | st.integers(-(10**20), 10**20).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
#: One-token mutations: each is not one JSON number, or not a number at all.
_BAD_TOKENS = ["1 2", "01", "+1", ".5", "1.", "-", "1e", "NaN", "Infinity", "-Infinity", "true",
               "null", '"1"', "[]", "[1]", "{}", "\u0663", "\f1"]
#: Spellings of the entries of the identity channel on a qubit, so that some documents load.
_ONES = ["1", "1.0", "1e0", "1E+0", "0.1e1", "10E-1"]
_ZEROS = ["0", "-0", "0.0", "-0.0", "0e0", "-0E-5"]
_LAYOUTS = st.sampled_from([None, 0, 2, "\t"])
_SEPARATORS = st.sampled_from([None, (",", ":")])


def _tokens_array(draw_token, shape):
    """A nested list of ``shape`` whose leaves are placeholders, with the tokens they stand for."""
    tokens = []

    def build(dims):
        if not dims:
            tokens.append(draw_token())
            return f"@{len(tokens) - 1}@"
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(list(shape)), tokens


def _mutate(text: str, tokens: list, mutation, k: int) -> str:
    """``text`` with one defect; ``k`` picks the token or row it touches."""
    kind, bad = mutation
    k %= len(tokens)
    if kind == "token":
        tokens[k] = bad
    elif kind == "trailing comma":
        at = text.index(f'"@{k}@"')
        close = text.index("]", at)
        text = text[:close] + "," + text[close:]
    elif kind == "past the bracket":
        # The last entry of the first row moves past its closing bracket: [[1, 2], ...] -> [[1, ]2, ...]
        text = re.sub(r'("@\d+@")(\s*)(\])', r"\2\3 \1", text, count=1)
    elif kind == "before the bracket":
        # The first entry moves before its opening bracket: [[1, 2], ...] -> [1[, 2], ...]
        text = re.sub(r'(\[)(\s*)("@0@")', r"\3\1\2", text, count=1)
    return text


_MUTATIONS = st.none() | st.sampled_from(
    [("token", bad) for bad in _BAD_TOKENS]
    + [("trailing comma", None), ("past the bracket", None), ("before the bracket", None), ("ragged", None)]
)
#: Where the array goes: a field a decoder reads as an array, or a dimension field,
#: whose error message quotes the value as the standard library parsed it.
_PLACES = st.sampled_from([("kraus", "kraus"), ("stinespring", "V"), ("kraus", "d_in"), ("stinespring", "d_env")])


@st.composite
def _documents(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    identity = draw(st.booleans())
    if identity:
        # The identity channel on a qubit: one Kraus operator, or its isometry (d_out=2, d_env=1).
        kind_field = draw(st.sampled_from([("kraus", "kraus"), ("stinespring", "V")]))
        shape = (1, 2, 2, 2) if kind_field[0] == "kraus" else (2, 2, 2)
        eye = np.stack([np.eye(2), np.zeros((2, 2))], -1).reshape(shape)
        spellings = iter(draw(st.sampled_from(_ONES if x else _ZEROS)) for x in eye.ravel())
        array, tokens = _tokens_array(lambda: next(spellings), shape)
    else:
        kind_field = draw(_PLACES)
        array, tokens = _tokens_array(lambda: draw(_numbers), shape)
    mutation = draw(_MUTATIONS)
    if mutation == ("ragged", None):
        row = array
        while isinstance(row[0], list):
            row = row[draw(st.integers(0, len(row) - 1))]
        if len(row) == 1:
            row.append("@0@")
        else:
            row.pop()
    kind, field = kind_field
    doc = {"schema_version": 1, "kind": kind, field: array}
    if kind == "stinespring":
        doc.update(d_out=2, d_env=1)
    text = json.dumps(doc, indent=draw(_LAYOUTS), separators=draw(_SEPARATORS))
    if mutation not in (None, ("ragged", None)):
        text = _mutate(text, tokens, mutation, draw(st.integers(0, 10**6)))
    return re.sub(r'"@(\d+)@"', lambda m: tokens[int(m.group(1))], text)


def _outcome(read, text):
    """What ``read(text)`` returns, with its arrays as bytes, or the type and message it raises."""
    try:
        x = read(text)
    except Exception as exc:  # every failure must be the old path's, whatever its type
        return type(exc), str(exc)
    arrays = {k: (v.dtype, v.shape, v.tobytes()) for k, v in vars(x).items() if isinstance(v, np.ndarray)}
    return type(x), arrays


def _is_regular(value) -> bool:
    """Whether ``value`` is a nonempty regular array of finite numbers of rank >= 2."""
    try:
        a = serialize._float_array(value)
    except SchemaError:
        return False
    return a.ndim >= 2 and a.size > 0 and bool(np.isfinite(a).all())


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "doc.json"


def _check(path, text):
    path.write_text(text, encoding="utf-8")

    def old(text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
        return from_json_obj(doc)

    assert _outcome(lambda _: load(path), text) == _outcome(old, text)
    # The fields themselves: each array field read fast holds the old path's values, signs of zeros included.
    try:
        want = json.loads(text)
    except json.JSONDecodeError:
        return
    got = serialize._parse(text)
    if not isinstance(want, dict):
        assert got == want
        return
    assert list(got) == list(want)
    for key, value in got.items():
        if isinstance(value, np.ndarray):
            old_value = serialize._float_array(want[key])
            assert value.shape == old_value.shape and value.tobytes() == old_value.tobytes()
        else:
            assert type(value) is type(want[key]) and value == want[key]
            # A regular array of numbers in an array field is always read fast.
            assert key not in serialize._ARRAY_FIELDS or not _is_regular(value)


# Pieces of 1 or 5 characters cut the arrays drawn here between every few entries.
@settings(derandomize=True, max_examples=400, deadline=None)
@given(_documents(), st.sampled_from([1, 5, serialize._PIECE]))
@example('{"kind": "kraus", "kraus": [[[[1 2, 0]]]]}', serialize._PIECE)
@example('{"kind": "kraus", "kraus": [[[[1, 0],]]]}', serialize._PIECE)
@example('{"kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1,, 0]]]]}', 1)
@example('{"kind": "kraus", "d_in": [[2, 3]], "kraus": [[[[1, 0]]]]}', serialize._PIECE)
def test_load_matches_the_standard_library_path(path, text, piece):
    with mock.patch.object(serialize, "_PIECE", piece):
        _check(path, text)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_golden_documents_load_as_before(path, name):
    _check(path, (DATA / name).read_text(encoding="utf-8"))


def test_large_unitary_dilation_loads_as_before(path):
    # 216 x 216 x 2 entries, almost all +0.0: the array is read in many pieces.
    channel = ensembles.random_kraus_channel(6, 6, 6, np.random.default_rng(21))
    serialize.dump(unitary_from_isometry(isometry_from_kraus(channel)), path)
    assert len(path.read_text()) > 10 * serialize._PIECE
    _check(path, path.read_text())
    # The pieces bound the temporaries: the peak is the text of the file, about
    # 3.9 MiB in all, where reading the whole array at once took 11.3 MiB.
    tracemalloc.start()
    try:
        load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


#: Zero cells with whitespace inside: none is one JSON number.
_SPACED_ZEROS = ["0 .0", "0. 0", "0.\n0", "0.0 0.0", "0.0.0"]
#: Spellings near the zero cell's "0.0": each is its own JSON number, or not one.
_NEAR_ZEROS = ["0.00", "00.0", "0.0e0", "-0.0", "0.05", "10.0"]


@st.composite
def _zero_heavy_documents(draw):
    """A Kraus or Stinespring document of mostly "0.0" cells, in any layout, perhaps with one bad cell."""
    shape = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    others = st.sampled_from(_NEAR_ZEROS) | _numbers
    array, tokens = _tokens_array(lambda: draw(st.just("0.0") if draw(st.integers(0, 9)) < 8 else others), shape)
    kind, field = draw(st.sampled_from([("kraus", "kraus"), ("stinespring", "V")]))
    doc = {"schema_version": 1, "kind": kind, field: array}
    if kind == "stinespring":
        doc.update(d_out=2, d_env=1)
    text = json.dumps(doc, indent=draw(_LAYOUTS), separators=draw(_SEPARATORS))
    bad = draw(st.none() | st.sampled_from(_SPACED_ZEROS))
    if bad is not None:
        tokens[draw(st.integers(0, len(tokens) - 1))] = bad
    return re.sub(r'"@(\d+)@"', lambda m: tokens[int(m.group(1))], text)


_ZERO_CELLS = '{"kind": "kraus", "kraus": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, %s]]]]}'


# Most cells are "0.0", which the reader takes as +0.0 without parsing: a zero spelled
# with whitespace inside must fail as the standard library fails, and a spelling near
# "0.0" must keep its own value or error.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_zero_heavy_documents(), st.sampled_from([1, 5, serialize._PIECE]))
@example(_ZERO_CELLS % "0 .0", serialize._PIECE)
@example(_ZERO_CELLS % "-0.0", 5)
@example('{"kind": "kraus", "kraus": [[[[0 .0,]]]]}', serialize._PIECE)
@example('{"kind": "kraus", "kraus": [[[[, 0.0], [0.0, 0.0]]]]}', 1)
def test_zero_heavy_documents_load_as_before(path, text, piece):
    with mock.patch.object(serialize, "_PIECE", piece):
        _check(path, text)


@pytest.mark.parametrize("spelling", _SPACED_ZEROS + _NEAR_ZEROS)
def test_a_zero_cell_is_only_ever_the_exact_text_0_0(path, spelling):
    for piece in (1, 5, serialize._PIECE):
        with mock.patch.object(serialize, "_PIECE", piece):
            _check(path, _ZERO_CELLS % spelling)
            _check(path, _ZERO_CELLS.replace("0.0, %s", "%s, 0.0") % spelling)


#: Whole-document cases around the array: the top level, the delimiters
#: between fields, and fields of other kinds and ranks.
_DOCUMENTS = [
    '[1, 2]',
    '\ufeff{"kind": "kraus", "kraus": [[[[1, 0]]]]}',
    '{}',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]]} x',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]] "d_in": 1}',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]],}',
    '{"kind": "kraus", "kraus" [[[[1, 0]]]]}',
    '{1: 2}',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]]',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]], "kraus": [[[[1, 0]]]]}',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]], "metadata": {"U": [[1, 2]]}}',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]] , "d_in": 1 }\n',
    '{"kind": "kraus", "kraus": [[[[1, 0]]]]\f}',
    '{"kind": "kraus", "kraus": [[[[1, \u0663]]]]}',
    '{"kind": "kraus", "kraus": [[[[1 2, 0]]]]}',
    '{"kind": "kraus", "kraus": [[[[1, ]0]]]}',
    '{"kind": "kraus", "kraus": [[[[1, 0]], [[0]]]]}',
    '{"kind": "kraus", "kraus": [[[[0, %s]]]]}' % BIG_INT,
    '{"kind": "kraus", "kraus": "[[1]]"}',
    '{"kind": "kraus", "kraus": 5}',
    '{"kind": "kraus", "kraus": []}',
    '{"kind": "kraus", "kraus": [[]]}',
    '{"kind": "kraus", "kraus": [[[[1, 0]]], [[[0, 1]]]]}',
    '{"kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "d_in": 2.0}',
    '{"kind": "gaussian-state", "m": [0, 0], "sigma": [[1, 0], [0, 1]]}',
    '{"kind": "gaussian-state", "m": [[0, 0]], "sigma": [[1, 0], [0, 1e400]]}',
    '{"kind": "convergence-report", "indices": [[1]], "strong": [[0.5]]}',
]


@pytest.mark.parametrize("text", _DOCUMENTS)
def test_load_matches_the_standard_library_path_on_whole_documents(path, text):
    _check(path, text)


_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=4, max_side=4), elements=_PARTS | st.floats()))
@example(np.array(-0.0))
@example(np.full((2, 1, 3, 1), -0.0))
def test_float_array_of_nested_lists_keeps_the_bits(a):
    got = serialize._float_array(a.tolist())
    assert got.dtype == np.float64 and got.shape == a.shape
    assert got.tobytes() == a.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4).map(lambda s: s + (2,)),
              elements=_PARTS))
def test_complex_from_json_keeps_the_bits_of_re_plus_1j_im(pairs):
    want = pairs[..., 0] + 1j * pairs[..., 1]
    for obj in (pairs, pairs.tolist()):
        got = complex_from_json(obj, pairs.ndim - 1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_complex_from_json_keeps_infinite_parts_without_a_nan():
    inf = float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = complex_from_json([[1.5, inf], [-0.0, -inf], [inf, 2.0], [-inf, -0.0]], 1)
    assert got.real.tolist() == [1.5, -0.0, inf, -inf]
    assert got.imag.tolist() == [inf, -inf, 2.0, 0.0]
    assert np.signbit(got.real).tolist() == [False, True, False, True]
    assert not np.signbit(got.imag[3])
