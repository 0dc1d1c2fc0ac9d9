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
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .core import KrausChannel, StinespringIsometry, UnitaryOp
from .dilation import UnitaryDilation
from .gaussian import GaussianChannel, GaussianState
from .report import COLUMNS, SCHEMA_VERSION, dump_json, from_json_dict


class SchemaError(ValueError):
    """Raised when a document cannot be parsed into a domain object."""


def _pairs(m) -> np.ndarray:
    """A complex array as a real array with a trailing [re, im] axis (a view when it can be)."""
    a = np.asarray(m, dtype=np.complex128, order="C")
    return a.reshape(-1).view(np.float64).reshape(a.shape + (2,))


def _nested(obj, depth: int):
    """An iterator over the items ``depth`` levels of list nesting below ``obj``."""
    items = iter((obj,))
    for _ in range(depth):
        items = chain.from_iterable(items)
    return items


def _float_array(obj) -> np.ndarray:
    """A nested list of numbers as a float64 array; anything else is a SchemaError.

    Every level above the entries must be a list, all lists at one depth must
    have one length, and every entry must be an int or a float (a bool is not
    a number).  Each check and the fill of the array is one pass over chained
    iterators, so no flat list of the entries is built.
    """
    shape = []
    x = obj
    while isinstance(x, list):
        shape.append(len(x))
        x = x[0] if x else None
    for depth in range(1, len(shape)):
        if {*map(type, _nested(obj, depth))} != {list} or {*map(len, _nested(obj, depth))} != {shape[depth]}:
            raise SchemaError(
                f"not a numeric array: not every item at depth {depth} is a list of length {shape[depth]}"
            )
    wrong = sorted(
        t.__name__
        for t in {*map(type, _nested(obj, len(shape)))}
        if issubclass(t, bool) or not issubclass(t, (int, float))
    )
    if wrong:
        raise SchemaError(f"not a numeric array: entries must be numbers, got {', '.join(wrong)}")
    try:
        return np.fromiter(_nested(obj, len(shape)), np.float64, count=math.prod(shape)).reshape(shape)
    except OverflowError as exc:
        raise SchemaError(f"not a numeric array: {exc}") from exc


def complex_from_json(obj, ndim: int) -> np.ndarray:
    a = _float_array(obj)
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise SchemaError(
            f"expected a rank-{ndim} complex array of [re, im] pairs, got shape {a.shape}"
        )
    return a[..., 0] + 1j * a[..., 1]


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
    if not isinstance(raw, list) or not raw:
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
    Every integer field the decoded object's own document holds must equal
    the input's value of that field, where the input declares one.
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


def dump(x, path, metadata: dict | None = None) -> None:
    """Write an object to a JSON file, optionally with a metadata block."""
    with open(path, "w") as fh:
        dump_json(document(x, metadata), fh)


def load(path):
    """Read a JSON file back into the domain object or report it holds."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_obj(doc)
