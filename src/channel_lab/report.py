"""Sweep reports: one column table per kind, and the JSON layout of every file.

A :class:`Report` is a table with one row per sequence index.  Its ``kind``
fixes the columns, in CSV order, and the type of their cells (:data:`COLUMNS`).
The channel sweep (``sequences.convergence_report``) writes
``convergence-report`` tables; the Gaussian sweep
(``gaussian.param_convergence_check``) writes ``gaussian-convergence-report``
tables, which also carry their flag threshold ``eps``.
"""

from __future__ import annotations

import csv
import math
import numbers
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import ValidationError

SCHEMA_VERSION = 1

#: Each report kind's columns in CSV order (after ``n``) with the type of their cells.
COLUMNS = {
    "convergence-report": {
        "strong": float,
        "strongstar": float,
        "choi": float,
        "strong_witness": str,
        "strongstar_witness": str,
    },
    "gaussian-convergence-report": {
        "scale_dev": float,
        "shift_dev": float,
        "noise_dev": float,
        "char_dev": float,
        "within_eps": bool,
    },
}
#: The report kinds that carry the flag threshold ``eps``.
EPS_KINDS = frozenset({"gaussian-convergence-report"})
_NOT_NUMBERS = (bool, np.bool_)
#: Which values a cell of each column type accepts; numpy scalars count.
_ACCEPTS = {
    float: lambda x: isinstance(x, numbers.Real) and not isinstance(x, _NOT_NUMBERS),
    bool: lambda x: isinstance(x, _NOT_NUMBERS),
    str: lambda x: isinstance(x, str),
}


def dump_json(doc, fh) -> None:
    """Write ``doc`` to an open text file in the one JSON layout: keys sorted, indent 2, trailing newline.

    The bytes are exactly ``json.dump(doc, fh, indent=2, sort_keys=True)``
    plus ``"\\n"``.  ``doc`` may also hold numpy arrays, written as their
    ``tolist()``; float arrays are formatted without the stdlib's per-element
    encoder, one slice of the outermost axis at a time, so a large document
    is never held as one string.
    """
    _write_value(doc, 0, fh.write)
    fh.write("\n")


_INDENT = "  "


def _float_text(x: float) -> str:
    # json's spelling: non-finite values as JavaScript literals, the rest as float.__repr__.
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _scalar_text(x) -> str:
    # The same type tests, in the same order, as json's encoder.
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, (str, int, float)) or key is None:
        return encode_basestring_ascii(key if isinstance(key, str) else _scalar_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_value(x, level: int, write) -> None:
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "f" and x.itemsize <= 8 and x.ndim > 1 and x.size:
            _write_float_array(x, level, write)
        else:
            _write_value(x.tolist(), level, write)
    elif isinstance(x, (list, tuple)):
        if not x:
            write("[]")
            return
        inner = "\n" + _INDENT * (level + 1)
        write("[")
        for i, item in enumerate(x):
            write(("," + inner) if i else inner)
            _write_value(item, level + 1, write)
        write("\n" + _INDENT * level + "]")
    elif isinstance(x, dict):
        if not x:
            write("{}")
            return
        inner = "\n" + _INDENT * (level + 1)
        write("{")
        for i, (key, value) in enumerate(sorted(x.items())):
            write(("," + inner if i else inner) + _key_text(key) + ": ")
            _write_value(value, level + 1, write)
        write("\n" + _INDENT * level + "}")
    else:
        write(_scalar_text(x))


def _write_float_array(a: np.ndarray, level: int, write) -> None:
    """Write a nonempty float array of rank >= 2 as json lays out its ``tolist()``.

    Each slice of the outermost axis is formatted in one pass: its entries'
    reprs interleaved with the separators, which depend only on the shape.
    """
    head, seps = _block_layout(a.shape[1:], level + 1)
    inner = "\n" + _INDENT * (level + 1)
    write("[")
    for i, block in enumerate(a):
        entries = map(_float_text, block.ravel().tolist())
        write(("," + inner if i else inner) + head + "".join(chain.from_iterable(zip(entries, seps))))
    write("\n" + _INDENT * level + "]")


def _block_layout(shape: tuple, level: int) -> tuple[str, list]:
    """The text before the first entry of a nested list of ``shape`` at ``level``, and after each entry."""
    depth = len(shape)

    def opens(first: int) -> str:
        brackets = "".join("\n" + _INDENT * (level + j) + "[" for j in range(first, depth))
        return brackets + "\n" + _INDENT * (level + depth)

    def closes(last: int) -> str:
        return "".join("\n" + _INDENT * (level + j) + "]" for j in range(depth - 1, last - 1, -1))

    seps = []
    for axis in range(depth - 1, -1, -1):
        # Between two children along ``axis``: close the inner brackets, then open the next child's.
        seps = ((seps + [closes(axis + 1) + "," + opens(axis + 1)]) * shape[axis])[:-1]
    return "[" + opens(1), seps + [closes(0)]


class Report:
    """Per-index results of a convergence sweep, one column per measured quantity.

    Columns are passed by name and read back as attributes (``rep.strong``).
    Construction checks the kind, that there is at least one row, that every
    column has one cell per index, that indices are integers and every cell
    has its column's type (numpy scalars included, bools are not numbers),
    and that float cells are finite and nonnegative (they are all defects or
    deviations).  Cells are stored as plain Python values.

    For ``convergence-report`` tables, ``choi_dominates_strong`` records per
    index whether the Choi lower bound weakly dominates the strong defect seen
    on the test family.  It is a diagnostic: the true completely bounded
    distance always dominates, the lower bound need not.
    """

    def __init__(self, kind: str, indices, *, eps: float | None = None, test_family: str = "", **columns):
        if kind not in COLUMNS:
            raise ValidationError(f"unknown report kind {kind!r}")
        self.kind = kind
        indices = tuple(indices)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, _NOT_NUMBERS) for n in indices):
            raise ValidationError(f"malformed {kind}: indices must be integers, got {list(indices)!r}")
        self.indices = tuple(int(n) for n in indices)
        if not self.indices:
            raise ValidationError("a report needs at least one row, got an empty index list")
        if (eps is not None) != (kind in EPS_KINDS):
            raise ValidationError(f"eps={eps!r} does not fit a {kind}")
        if eps is not None and not (_ACCEPTS[float](eps) and math.isfinite(eps)):
            raise ValidationError(f"malformed {kind}: eps must be a finite real number, got {eps!r}")
        if set(columns) != set(COLUMNS[kind]):
            raise ValidationError(f"a {kind} has columns {list(COLUMNS[kind])}, got {list(columns)}")
        self.columns = {}
        for name, cell in COLUMNS[kind].items():
            col = tuple(columns[name])
            wrong = [x for x in col if not _ACCEPTS[cell](x)]
            if wrong:
                raise ValidationError(
                    f"malformed {kind}: column {name} holds {cell.__name__} cells, got {wrong[0]!r}"
                )
            col = tuple(map(cell, col))
            if len(col) != len(self.indices):
                raise ValidationError(f"column {name} has wrong length")
            if cell is float and not all(math.isfinite(x) and x >= 0 for x in col):
                raise ValidationError(
                    f"column {name} has non-finite or negative entries; defects must be finite and nonnegative"
                )
            self.columns[name] = col
        self.eps = None if eps is None else float(eps)
        self.test_family = test_family

    @classmethod
    def from_rows(cls, kind: str, indices, rows, **fields) -> Report:
        """Build a report from one row per index, cells in :data:`COLUMNS` order."""
        return cls(kind, indices, **dict(zip(COLUMNS[kind], zip(*rows))), **fields)

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def choi_dominates_strong(self) -> tuple:
        return tuple(c >= s - 1e-12 for c, s in zip(self.choi, self.strong))

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "indices": list(self.indices),
            "test_family": self.test_family,
        }
        doc.update((name, list(col)) for name, col in self.columns.items())
        if self.eps is not None:
            doc["eps"] = self.eps
        if "choi" in self.columns:
            doc["choi_dominates_strong"] = list(self.choi_dominates_strong)
        return doc

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            dump_json(self.to_json_dict(), fh)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", *self.columns])
            for row in zip(self.indices, *self.columns.values()):
                writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def from_json_dict(doc: dict, kind: str | None = None) -> Report:
    """Rebuild a report from its JSON form, dispatching on its ``kind``.

    Any kind outside :data:`COLUMNS`, or other than ``kind`` when that is
    given, is rejected; so are missing fields and columns that are not lists.
    """
    got = doc.get("kind")
    if not isinstance(got, str) or got not in COLUMNS or kind not in (None, got):
        raise ValidationError(f"not a {kind or 'report'} (kind={got!r})")
    try:
        return Report(
            got,
            doc["indices"],
            eps=doc["eps"] if got in EPS_KINDS else None,
            test_family=str(doc.get("test_family", "")),
            **{name: doc[name] for name in COLUMNS[got]},
        )
    except KeyError as exc:
        raise ValidationError(f"malformed {got}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed {got}: {exc}") from exc
