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


def complex_to_json(m) -> list:
    """Encode a complex array (any depth) as nested [re, im] pairs."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [complex_to_json(part) for part in a]


def complex_from_json(obj, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"not a numeric array: {exc}") from exc
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise SchemaError(
            f"expected a rank-{ndim} complex array of [re, im] pairs, got shape {a.shape}"
        )
    return a[..., 0] + 1j * a[..., 1]


def real_to_json(m) -> list:
    return np.asarray(m, dtype=np.float64).tolist()


def real_from_json(obj, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"not a numeric array: {exc}") from exc
    if a.ndim != ndim:
        raise SchemaError(f"expected a rank-{ndim} real array, got shape {a.shape}")
    return a


def to_json_obj(x) -> dict:
    """Encode a supported domain object as a JSON-ready dict."""
    if isinstance(x, KrausChannel):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "kraus",
            "d_in": x.d_in,
            "d_out": x.d_out,
            "kraus": [complex_to_json(a) for a in x.kraus_ops],
        }
    if isinstance(x, StinespringIsometry):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "stinespring",
            "d_in": x.d_in,
            "d_out": x.d_out,
            "d_env": x.d_env,
            "V": complex_to_json(x.v),
        }
    if isinstance(x, UnitaryDilation):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "unitary-dilation",
            "d_in": x.d_in,
            "d_anc": x.d_anc,
            "d_out": x.d_out,
            "d_env": x.d_env,
            "U": complex_to_json(x.u.u),
            "tau0": complex_to_json(x.tau0),
        }
    if isinstance(x, GaussianState):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "gaussian-state",
            "s": x.modes,
            "m": real_to_json(x.mean),
            "sigma": real_to_json(x.cov),
        }
    if isinstance(x, GaussianChannel):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "gaussian-channel",
            "s_in": x.modes_in,
            "s_out": x.modes_out,
            "K": real_to_json(x.scale),
            "ell": real_to_json(x.shift),
            "alpha": real_to_json(x.noise),
        }
    raise SchemaError(f"no JSON encoding for objects of type {type(x).__name__}")


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError as exc:
        raise SchemaError(f"missing field {key!r}") from exc


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
        ops = tuple(complex_from_json(a, 2) for a in raw)
        ch = KrausChannel(ops)
        _check_dims(obj, {"d_in": ch.d_in, "d_out": ch.d_out})
        return ch
    if kind == "stinespring":
        v = complex_from_json(_field(obj, "V"), 2)
        iso = StinespringIsometry(v, int(_field(obj, "d_out")), int(_field(obj, "d_env")))
        _check_dims(obj, {"d_in": iso.d_in})
        return iso
    if kind == "unitary-dilation":
        return UnitaryDilation(
            u=UnitaryOp(complex_from_json(_field(obj, "U"), 2)),
            tau0=complex_from_json(_field(obj, "tau0"), 1),
            d_in=int(_field(obj, "d_in")),
            d_anc=int(_field(obj, "d_anc")),
            d_out=int(_field(obj, "d_out")),
            d_env=int(_field(obj, "d_env")),
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
        got = obj.get(key, want)
        if int(got) != want:
            raise SchemaError(f"declared {key}={got} but the data implies {key}={want}")


def dump(x, path, metadata: dict | None = None) -> None:
    """Write an object to a JSON file, optionally with a metadata block."""
    doc = to_json_obj(x)
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w") as fh:
        dump_json(doc, fh)


def load(path, report: bool = False):
    """Read a JSON file back into a domain object, or into a report with ``report`` set."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_obj(doc, report)
