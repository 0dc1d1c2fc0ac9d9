"""JSON encoding of the domain objects, shared by the library and the CLI.

Complex matrices and vectors are nested arrays of ``[re, im]`` pairs; real
Gaussian parameters are plain numbers.  Every object carries a ``kind`` tag
and ``schema_version``; a document of another version is rejected, one
without the field is read as the current version.  Each kind is one entry
of one table: its type, the builder of its fields and its decoder.  Loading
reconstructs the domain object, which re-runs its invariants, then checks
the dimensions the input declares against the integer fields the encoder
writes for the result.  The two sweep report kinds decode through
:func:`channel_lab.report.from_json_dict`.  Structural problems raise
:class:`SchemaError`, invariant violations propagate as
:class:`channel_lab.core.ValidationError`.

:func:`load` parses a document with the standard library's scanner, except
the array fields of the top-level object (:data:`_ARRAY_FIELDS`): one that
is a regular array of JSON numbers of rank >= 2 is read once, a piece at a
time, straight into a float64 array, so no Python list is built per row or
``[re, im]`` pair, no copy of the whole array's text is made and whitespace
is deleted from each piece once.  A cell
whose text, whitespace deleted, is exactly ``0.0`` is +0.0 and is not
parsed one at a time: the zeros of a factored unitary dilation cost a few
byte operations each.  Deleting whitespace may not join two numbers, so
``0 .0`` is no zero cell but an error.  Every other cell goes to the
standard library, and so does anything else in such a field and anything
wrong anywhere in the document, so every value and every error is its own;
whitespace layout does not matter.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import KrausChannel, StinespringIsometry, UnitaryOp, _frozen
from .dilation import UnitaryDilation
from .gaussian import GaussianChannel, GaussianState
from .report import COLUMNS, SCHEMA_VERSION, dump_json, from_json_dict


class SchemaError(ValueError):
    """Raised when a document cannot be parsed into a domain object."""


def _pairs(m) -> np.ndarray:
    """A complex array as a real array with a trailing [re, im] axis (a view when it can be)."""
    a = np.asarray(m, dtype=np.complex128, order="C")
    return a.reshape(-1).view(np.float64).reshape(a.shape + (2,))


def _is_float64_array(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.dtype == np.float64


def _float_array(obj) -> np.ndarray:
    """A nested list of numbers as a float64 array; anything else is a SchemaError.

    Every level above the entries must be a list, all lists at one depth must
    have one length, and every entry must be an int or a float (a bool is not
    a number).  A float64 array, as :func:`load` reads a regular array field
    of rank >= 2 into, is returned as it is; lists reach this function only
    for the rank-1 fields, for empty or malformed arrays, and from direct
    :func:`from_json_obj` calls, so they are flattened one depth at a time.
    """
    if _is_float64_array(obj):
        return obj
    # The length of the first list at each depth is the shape's; at depth >= 1,
    # every item must be a list of that length.
    shape, items = [], [obj]
    while items and isinstance(items[0], list):
        n = len(items[0])
        if shape and any(type(row) is not list or len(row) != n for row in items):
            raise SchemaError(
                f"not a numeric array: not every item at depth {len(shape)} is a list of length {n}"
            )
        shape.append(n)
        items = [item for row in items for item in row]
    wrong = sorted(
        t.__name__ for t in {*map(type, items)} if issubclass(t, bool) or not issubclass(t, (int, float))
    )
    if wrong:
        raise SchemaError(f"not a numeric array: entries must be numbers, got {', '.join(wrong)}")
    try:
        return np.fromiter(items, np.float64, count=len(items)).reshape(shape)
    except OverflowError as exc:
        raise SchemaError(f"not a numeric array: {exc}") from exc


def complex_from_json(obj, ndim: int) -> np.ndarray:
    a = _float_array(obj)
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise SchemaError(
            f"expected a rank-{ndim} complex array of [re, im] pairs, got shape {a.shape}"
        )
    # The bits of ``re + 1j * im`` for finite parts, in which ``1j * im`` adds
    # ``0 * im`` to the real part and ``0 + im`` is the imaginary part, so a
    # -0.0 real part takes the sign of ``im`` and a -0.0 ``im`` becomes +0.0.
    # ``copysign`` gives that zero without the NaN of ``0 * inf``.
    out = np.empty(a.shape[:-1], dtype=np.complex128)
    np.add(a[..., 0], np.copysign(0.0, a[..., 1]), out=out.real)
    np.add(a[..., 1], 0.0, out=out.imag)
    # Read-only, so the constructor it reaches takes it without a copy.
    return _frozen(out)


def real_from_json(obj, ndim: int) -> np.ndarray:
    a = _float_array(obj)
    if a.ndim != ndim:
        raise SchemaError(f"expected a rank-{ndim} real array, got shape {a.shape}")
    return a


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError as exc:
        raise SchemaError(f"missing field {key!r}") from exc


def _dim(obj: dict, key: str) -> int:
    """A declared integer: an int, or a float with an integral value, but not a bool."""
    value = _field(obj, key)
    if not (
        isinstance(value, int) and not isinstance(value, bool)
        or isinstance(value, float) and value.is_integer()
    ):
        raise SchemaError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def _kraus_from_json(obj: dict) -> KrausChannel:
    raw = _field(obj, "kraus")
    # A nonempty list, or the float64 array load reads the field into.
    if not (_is_float64_array(raw) or isinstance(raw, list) and raw):
        raise SchemaError("field 'kraus' must be a nonempty list")
    # One (K, d_out, d_in) array: a ragged family is a structural error.
    return KrausChannel(complex_from_json(raw, 3))


#: Each document kind with its type, the builder of its other fields and its
#: decoder.  Arrays are left as ndarrays, complex ones with a trailing
#: [re, im] axis; :func:`~channel_lab.report.dump_json` writes them directly.
#: The integer fields a kind writes are the dimensions its decoder checks.
_KINDS = {
    "kraus": (KrausChannel, lambda x: {
        "d_in": x.d_in,
        "d_out": x.d_out,
        "kraus": _pairs(x.stack),
    }, _kraus_from_json),
    "stinespring": (StinespringIsometry, lambda x: {
        "d_in": x.d_in,
        "d_out": x.d_out,
        "d_env": x.d_env,
        "V": _pairs(x.v),
    }, lambda obj: StinespringIsometry(
        complex_from_json(_field(obj, "V"), 2), _dim(obj, "d_out"), _dim(obj, "d_env")
    )),
    "unitary-dilation": (UnitaryDilation, lambda x: {
        "d_in": x.d_in,
        "d_anc": x.d_anc,
        "d_out": x.d_out,
        "d_env": x.d_env,
        "U": _pairs(x.u.u),
        "tau0": _pairs(x.tau0),
    }, lambda obj: UnitaryDilation(
        u=UnitaryOp(complex_from_json(_field(obj, "U"), 2)),
        tau0=complex_from_json(_field(obj, "tau0"), 1),
        d_in=_dim(obj, "d_in"),
        d_anc=_dim(obj, "d_anc"),
        d_out=_dim(obj, "d_out"),
        d_env=_dim(obj, "d_env"),
    )),
    "gaussian-state": (GaussianState, lambda x: {
        "s": x.modes,
        "m": x.mean,
        "sigma": x.cov,
    }, lambda obj: GaussianState(
        mean=real_from_json(_field(obj, "m"), 1),
        cov=real_from_json(_field(obj, "sigma"), 2),
    )),
    "gaussian-channel": (GaussianChannel, lambda x: {
        "s_in": x.modes_in,
        "s_out": x.modes_out,
        "K": x.scale,
        "ell": x.shift,
        "alpha": x.noise,
    }, lambda obj: GaussianChannel(
        scale=real_from_json(_field(obj, "K"), 2),
        shift=real_from_json(_field(obj, "ell"), 1),
        noise=real_from_json(_field(obj, "alpha"), 2),
    )),
}


def _kind_and_fields(x):
    for kind, (cls, fields, _) in _KINDS.items():
        if isinstance(x, cls):
            return kind, fields
    raise SchemaError(f"no JSON encoding for objects of type {type(x).__name__}")


def kind_of(x) -> str:
    """The document ``kind`` a supported domain object is written as."""
    return _kind_and_fields(x)[0]


def document(x, metadata: dict | None = None) -> dict:
    """The document of a supported domain object, arrays as ndarrays, for :func:`dump_json`."""
    kind, fields = _kind_and_fields(x)
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields(x)}
    if metadata:
        doc["metadata"] = metadata
    return doc


def from_json_obj(obj):
    """Decode a JSON object into the domain object its ``kind`` names.

    The report kinds decode into a :class:`~channel_lab.report.Report`.
    An array field may be a nested list or, as :func:`load` reads it, a
    float64 array.  Every integer field the decoded object's own document
    holds must equal the input's value of that field, where the input
    declares one.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")
    if "schema_version" in obj and _dim(obj, "schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {obj['schema_version']!r} (expected {SCHEMA_VERSION})"
        )
    kind = _field(obj, "kind")
    if isinstance(kind, str) and kind in COLUMNS:
        return from_json_dict(obj)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    _, fields, decode = _KINDS[kind]
    x = decode(obj)
    for key, want in fields(x).items():
        if isinstance(want, int) and key in obj and _dim(obj, key) != want:
            raise SchemaError(f"declared {key}={obj[key]} but the data implies {key}={want}")
    return x


def dump(x, path) -> None:
    """Write an object's document to a JSON file."""
    with open(path, "w") as fh:
        dump_json(document(x), fh)


#: The fields the decoders read as numeric arrays; :func:`_parse` reads them
#: straight into float64 arrays.  Every other field keeps the standard
#: library's value, so the messages that quote a malformed one do not change.
_ARRAY_FIELDS = frozenset({"kraus", "V", "U", "tau0", "m", "sigma", "K", "ell", "alpha"})
_WHITESPACE = json.decoder.WHITESPACE.match
_SCAN = json.JSONDecoder().scan_once
#: Characters of an array field copied at a time: no copy of the whole array is made.
#: Whole fields raised the convert-batch benchmark's peak RSS from 56-57.5 to 59-62 MB.
_PIECE = 1 << 16
#: JSON's whitespace, deleted from each piece.
_JSON_SPACE = b" \t\n\r"
#: Every character of a JSON number as "0".
_NUMBER_MARKS = bytes.maketrans(b"123456789+-.eE", b"0" * 14)
#: An entry that is exactly "0.0" with the comma after it, as a little-endian 4-byte word.
_ZERO_ENTRY = int.from_bytes(b"0.0,", "little")
_COMMA, _OPEN, _CLOSE = b",[]"
#: A number right after a closing bracket or right before an opening one, as little-endian 2-byte marks.
_CLOSE_NUMBER, _NUMBER_OPEN = (int.from_bytes(pair, "little") for pair in (b"]0", b"0["))


def _skeleton(shape) -> bytes:
    """The brackets and commas of a nested list of numbers of ``shape``."""
    text = b""
    for n in reversed(shape):
        text = b"[" + b",".join([text] * n) + b"]"
    return text


def _shape(skeleton: bytes) -> list | None:
    """The shape read off the first list at each depth of ``skeleton``; None if there is none.

    Whether all of ``skeleton`` is that shape's :func:`_skeleton` is left to
    the caller.  The first list at depth ``k`` of a rank-``r`` skeleton starts at index
    ``k`` and ends where ``r - k`` closing brackets first follow each other;
    it holds ``n`` children of one length ``c`` (0 for a number) and
    ``n - 1`` commas, so its length is ``1 + n * (c + 1)``.
    """
    rank = len(skeleton) - len(skeleton.lstrip(b"["))
    shape, child = [], 0
    for depth in range(rank - 1, -1, -1):
        closing = b"]" * (rank - depth)
        length = skeleton.find(closing) + len(closing) - depth
        n = (length - 1) // (child + 1)
        if n < 1:
            return None
        shape.append(n)
        child = length
    return shape[::-1]


def _pieces(text: str, start: int, end: int):
    """``text[start:end]`` cut after the first comma every ``_PIECE`` characters, as ASCII bytes.

    Every piece ends with a comma or, the last, with the array's closing
    bracket, so no number and no pair of marks spans two pieces.
    """
    while start < end:
        stop = text.find(",", start + _PIECE - 1, end) + 1 or end
        yield text[start:stop].encode("ascii")
        start = stop


def _numeric_array(text: str, start: int):
    """The float64 array of the regular array of JSON numbers of rank >= 2 at ``text[start]``, and its end; else None.

    The array must be ASCII, its brackets and commas the skeleton of a
    shape, and number characters must sit only inside its innermost lists.
    It is read once, a piece at a time, into an array sized by its commas
    (one per cell but the first); the skeleton is checked against the shape
    it spells at the end, so only the skeleton and the array outlive a
    piece.  Whitespace is deleted from each piece once, and its marks and
    its entries are read off that compact copy: the entries are its text
    between commas once brackets are deleted too.  An entry that is exactly
    ``0.0`` is +0.0 and is not parsed, so the zero cells of a sparse array
    cost a few byte operations each, not a Python float each.  Deleting
    whitespace may not join two numbers: a piece must hold one run of number
    characters per entry.  The standard library decides whether each other
    entry is one JSON number, and its value; a piece without a zero entry it
    parses whole, from its entries.
    """
    if not text.startswith("[", start):
        return None
    # The array cannot reach past the next string: it ends at the last "]" before one.
    stop = text.find('"', start)
    end = text.rfind("]", start, stop if stop >= 0 else len(text)) + 1
    # Every cell but the first follows one comma, so the commas size the array.
    out, done, skeleton = np.zeros(text.count(",", start, end) + 1), 0, []
    try:
        for raw in _pieces(text, start, end):
            compact = raw.translate(None, _JSON_SPACE)
            marks = compact.translate(_NUMBER_MARKS)
            pairs = np.ndarray((len(marks) - 1,), "<u2", marks, strides=(1,))
            if _CLOSE_NUMBER in pairs or _NUMBER_OPEN in pairs:
                return None
            skeleton.append(marks.translate(None, b"0"))
            # The piece's entries, each after a comma.
            entries = b"," + compact.translate(None, b"[]") + (b"," if compact.endswith(b"]") else b"")
            # Deleting whitespace may not join two numbers: one run of number
            # characters per entry.  A run has one number character more than
            # it has adjacent pairs of them.
            code = np.frombuffer(raw, np.uint8)
            number = (code > 32) & (code != _COMMA) & (code != _OPEN) & (code != _CLOSE)
            if np.count_nonzero(number) - np.count_nonzero(number[:-1] & number[1:]) != entries.count(b",") - 1:
                return None
            if b",0.0," not in entries:
                found = json.loads(b"[" + entries[1:-1] + b"]")
                out[done:done + len(found)] = np.fromiter(found, np.float64, count=len(found))
                done += len(found)
                continue
            # Three bytes of padding, so that every entry starts a 4-byte window.
            padded = entries + b"   "
            commas = np.flatnonzero(np.frombuffer(padded, np.uint8) == _COMMA)
            windows = np.ndarray((len(entries),), "<u4", padded, strides=(1,))
            kept = windows[commas[:-1] + 1] != _ZERO_ENTRY
            # The other entries go to the parser a run of neighbours at a time.
            ends = np.zeros(kept.size + 2, np.int8)
            ends[1:-1] = kept
            ends = commas[np.flatnonzero(ends[1:] != ends[:-1])].tolist()
            found = json.loads(b"[" + b"".join([entries[i:j] for i, j in zip(ends[::2], ends[1::2])])[1:] + b"]")
            out[done:done + kept.size][kept] = np.fromiter(found, np.float64, count=len(found))
            done += kept.size
    except (ValueError, OverflowError, TypeError):
        # Text that is not ASCII, an entry that is not one JSON number, an empty
        # one, more entries than cells, an int beyond float range, or a value
        # that is no number at all (the skeleton would reject its marks).
        return None
    skeleton = b"".join(skeleton)
    shape = _shape(skeleton)
    # The skeleton spells one shape, and every one of its cells was read.
    if shape is None or len(shape) < 2 or skeleton != _skeleton(shape) or done != out.size:
        return None
    return out.reshape(shape), end


def _parse(text: str):
    """``json.loads(text)``, except that the array fields of a top-level object may be float64 arrays.

    The loop reads the top-level object with the standard library's scanner,
    one key and value at a time; on anything it does not expect it hands
    the whole text to ``json.loads``, which returns its value or raises its
    error.
    """
    i = _WHITESPACE(text).end()
    if not text.startswith("{", i):
        return json.loads(text)
    doc = {}
    i = _WHITESPACE(text, i + 1).end()
    try:
        while True:
            key, i = _SCAN(text, i)
            i = _WHITESPACE(text, i).end()
            if not isinstance(key, str) or not text.startswith(":", i):
                return json.loads(text)
            i = _WHITESPACE(text, i + 1).end()
            found = _numeric_array(text, i) if key in _ARRAY_FIELDS else None
            doc[key], i = found or _SCAN(text, i)
            i = _WHITESPACE(text, i).end()
            if text.startswith("}", i):
                break
            if not text.startswith(",", i):
                return json.loads(text)
            i = _WHITESPACE(text, i + 1).end()
    except (StopIteration, ValueError):
        return json.loads(text)
    if _WHITESPACE(text, i + 1).end() != len(text):
        return json.loads(text)
    return doc


def load(path):
    """Read a JSON file back into the domain object or report it holds."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = _parse(fh.read())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_obj(doc)
