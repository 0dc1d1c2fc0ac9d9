"""JSON encoding of the domain objects, shared by the library and the CLI.

Complex matrices and vectors are nested arrays of ``[re, im]`` pairs; real
Gaussian parameters are plain numbers.  Every object carries a ``kind`` tag
and ``schema_version``; loading reconstructs the domain object, which
re-runs its invariants.  Sweep reports (:mod:`channel_lab.report`) are
decoded on request.  Structural problems raise :class:`SchemaError`,
invariant violations propagate as :class:`channel_lab.core.ValidationError`.
"""

from __future__ import annotations

import json

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


def _float_array(obj) -> np.ndarray:
    try:
        return np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
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


#: Each encodable type with its document kind and the builder of its other
#: fields.  Arrays are left as ndarrays, complex ones with a trailing
#: [re, im] axis; :func:`~channel_lab.report.dump_json` writes them directly.
_ENCODERS = {
    KrausChannel: ("kraus", lambda x: {
        "d_in": x.d_in,
        "d_out": x.d_out,
        "kraus": _pairs(x.stack),
    }),
    StinespringIsometry: ("stinespring", lambda x: {
        "d_in": x.d_in,
        "d_out": x.d_out,
        "d_env": x.d_env,
        "V": _pairs(x.v),
    }),
    UnitaryDilation: ("unitary-dilation", lambda x: {
        "d_in": x.d_in,
        "d_anc": x.d_anc,
        "d_out": x.d_out,
        "d_env": x.d_env,
        "U": _pairs(x.u.u),
        "tau0": _pairs(x.tau0),
    }),
    GaussianState: ("gaussian-state", lambda x: {
        "s": x.modes,
        "m": x.mean,
        "sigma": x.cov,
    }),
    GaussianChannel: ("gaussian-channel", lambda x: {
        "s_in": x.modes_in,
        "s_out": x.modes_out,
        "K": x.scale,
        "ell": x.shift,
        "alpha": x.noise,
    }),
}


def _encoder(x):
    for cls, entry in _ENCODERS.items():
        if isinstance(x, cls):
            return entry
    raise SchemaError(f"no JSON encoding for objects of type {type(x).__name__}")


def kind_of(x) -> str:
    """The document ``kind`` a supported domain object is written as."""
    return _encoder(x)[0]


def document(x, metadata: dict | None = None) -> dict:
    """The document of a supported domain object, arrays as ndarrays, for :func:`dump_json`."""
    kind, fields = _encoder(x)
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields(x)}
    if metadata:
        doc["metadata"] = metadata
    return doc


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError as exc:
        raise SchemaError(f"missing field {key!r}") from exc


def _dim(obj: dict, key: str) -> int:
    """A declared dimension: an integer, or a float with an integral value, but not a bool."""
    value = _field(obj, key)
    if not (
        isinstance(value, int) and not isinstance(value, bool)
        or isinstance(value, float) and value.is_integer()
    ):
        raise SchemaError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def from_json_obj(obj, report: bool = False):
    """Decode a JSON object into the domain object its ``kind`` names.

    With ``report`` set, only the report kinds are decoded, into a
    :class:`~channel_lab.report.Report`; without it they are unknown kinds.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")
    kind = _field(obj, "kind")
    if report:
        if not isinstance(kind, str) or kind not in COLUMNS:
            raise SchemaError(f"not a report document (kind={kind!r})")
        return from_json_dict(obj)
    if kind == "kraus":
        raw = _field(obj, "kraus")
        if not isinstance(raw, list) or not raw:
            raise SchemaError("field 'kraus' must be a nonempty list")
        # One (K, d_out, d_in) array: a ragged family is a structural error.
        ch = KrausChannel(complex_from_json(raw, 3))
        _check_dims(obj, {"d_in": ch.d_in, "d_out": ch.d_out})
        return ch
    if kind == "stinespring":
        v = complex_from_json(_field(obj, "V"), 2)
        iso = StinespringIsometry(v, _dim(obj, "d_out"), _dim(obj, "d_env"))
        _check_dims(obj, {"d_in": iso.d_in})
        return iso
    if kind == "unitary-dilation":
        return UnitaryDilation(
            u=UnitaryOp(complex_from_json(_field(obj, "U"), 2)),
            tau0=complex_from_json(_field(obj, "tau0"), 1),
            d_in=_dim(obj, "d_in"),
            d_anc=_dim(obj, "d_anc"),
            d_out=_dim(obj, "d_out"),
            d_env=_dim(obj, "d_env"),
        )
    if kind == "gaussian-state":
        st = GaussianState(
            mean=real_from_json(_field(obj, "m"), 1),
            cov=real_from_json(_field(obj, "sigma"), 2),
        )
        _check_dims(obj, {"s": st.modes})
        return st
    if kind == "gaussian-channel":
        ch = GaussianChannel(
            scale=real_from_json(_field(obj, "K"), 2),
            shift=real_from_json(_field(obj, "ell"), 1),
            noise=real_from_json(_field(obj, "alpha"), 2),
        )
        _check_dims(obj, {"s_in": ch.modes_in, "s_out": ch.modes_out})
        return ch
    raise SchemaError(f"unknown kind {kind!r}")


def _check_dims(obj: dict, expected: dict) -> None:
    for key, want in expected.items():
        if key in obj and _dim(obj, key) != want:
            raise SchemaError(f"declared {key}={obj[key]} but the data implies {key}={want}")


def dump(x, path, metadata: dict | None = None) -> None:
    """Write an object to a JSON file, optionally with a metadata block."""
    with open(path, "w") as fh:
        dump_json(document(x, metadata), fh)


def load(path, report: bool = False):
    """Read a JSON file back into a domain object, or into a report with ``report`` set."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_obj(doc, report)
