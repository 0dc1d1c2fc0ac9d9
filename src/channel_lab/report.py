"""Sweep reports: one column table per kind, and the one JSON writer of every file.

A :class:`Report` is a table with one row per sequence index.  Its ``kind``
fixes the columns, in CSV order, and the type of their cells (:data:`COLUMNS`).
The channel sweep (``sequences.convergence_report``) writes
``convergence-report`` tables; the Gaussian sweep
(``gaussian.param_convergence_check``) writes ``gaussian-convergence-report``
tables, which also carry their flag threshold ``eps``.

:func:`dump_json` writes every document: the standard library's own text for
values that hold no numpy array, one join per outer slice for float arrays,
whose separators and +0.0 cells are shared strings.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .core import ValidationError, _NOT_NUMBERS, _integers, _real

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
#: ``choi_dominates_strong`` holds where the Choi defect is at least the strong one minus this.
DOMINANCE_SLACK = 1e-12
#: Which values a cell of each column type accepts; numpy scalars count.
_ACCEPTS = {
    float: _real,
    bool: lambda x: isinstance(x, _NOT_NUMBERS),
    str: lambda x: isinstance(x, str),
}


def dump_json(doc, fh) -> None:
    """Write ``doc`` to an open text file in the one JSON layout: keys sorted, indent 2, trailing newline.

    The bytes are exactly ``json.dump(doc, fh, indent=2, sort_keys=True)``
    plus ``"\\n"``.  ``doc`` may also hold numpy arrays, written as their
    ``tolist()``.  Every value that holds no array is the stdlib's own text,
    re-indented to its level; only the dicts, lists and tuples around an
    array are walked here.  Nonempty float arrays of rank >= 2 are written one
    slice of the outermost axis at a time, so a large document is never held
    as one string, and every +0.0 cell is the shared piece ``"0.0"`` rather
    than a repr of its own.
    """
    _write_value(doc, 0, fh.write)
    fh.write("\n")


_INDENT = "  "
_NESTED = (np.ndarray, dict, list, tuple)


def _holds_array(x) -> bool:
    """Whether a numpy array sits anywhere in the dicts, lists and tuples of ``x``."""
    if isinstance(x, dict):
        x = x.values()
    elif not isinstance(x, (list, tuple)):
        return False
    # Scalar cells are skipped without a call: a report holds thousands of them.
    return any(isinstance(v, np.ndarray) or _holds_array(v) for v in x if isinstance(v, _NESTED))


def _write_value(x, level: int, write) -> None:
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "f" and x.itemsize <= 8 and x.ndim > 1 and x.size:
            _write_float_array(x, level, write)
        else:
            _write_value(x.tolist(), level, write)
    elif not _holds_array(x):
        write(json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + _INDENT * level))
    else:
        # A nonempty dict, list or tuple with an array inside.
        if isinstance(x, dict):
            # Each key as json spells it: the text between the braces of ``{key: 0}``.
            entries = ((json.dumps({key: 0})[1:-4] + ": ", value) for key, value in sorted(x.items()))
            brackets = "{}"
        else:
            entries = (("", item) for item in x)
            brackets = "[]"
        inner = "\n" + _INDENT * (level + 1)
        write(brackets[0])
        for i, (head, value) in enumerate(entries):
            write(("," + inner if i else inner) + head)
            _write_value(value, level + 1, write)
        write("\n" + _INDENT * level + brackets[1])


def _write_float_array(a: np.ndarray, level: int, write) -> None:
    """Write a nonempty float array of rank >= 2 as json lays out its ``tolist()``.

    Each slice of the outermost axis is the join of two pieces per entry: its
    text and the separator after it, which depends only on the shape.  The
    pieces are filled for the whole array at once: every separator and every
    +0.0 entry's ``"0.0"`` is one string shared by all its cells, so the
    zeros that dominate a factored unitary dilation are not formatted one by
    one, and only the other entries get a repr of their own (-0.0 among
    them).  Neither finite reprs nor separators contain ``inf`` or ``nan``,
    so when the array holds a non-finite entry, renaming those in every slice
    spells json's non-finite literals; an all-finite array is written
    without that scan.
    """
    head, seps = _block_layout(a.shape[1:], level + 1)
    cells = a.ravel()
    pieces = np.empty((cells.size, 2), dtype=object)
    pieces[:, 0] = "0.0"
    pieces[:, 1] = np.tile(np.array(seps, dtype=object), len(a))
    nonzero = (cells != 0) | np.signbit(cells)
    pieces[nonzero, 0] = np.array([repr(x) for x in cells[nonzero].tolist()], dtype=object)
    inner = "\n" + _INDENT * (level + 1)
    finite = bool(np.isfinite(a).all())
    write("[")
    for i, block in enumerate(pieces.reshape(len(a), -1)):
        text = head + "".join(block.tolist())
        if not finite:
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        write(("," + inner if i else inner) + text)
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
    column has one cell per index, that ``test_family`` is a string, that
    indices are integers and every cell has its column's type (numpy scalars
    included, bools are not numbers), and that float cells are finite and
    nonnegative (they are all defects or deviations).  Cells are stored as
    plain Python values.  A kind carries the flag threshold ``eps`` exactly
    when it has a ``within_eps`` column, which flags each row: the flag must
    be whether the row's largest float cell is at most ``eps``.

    For ``convergence-report`` tables, ``choi_dominates_strong`` records per
    index whether the Choi lower bound weakly dominates the strong defect seen
    on the test family, within ``DOMINANCE_SLACK``.  It is a diagnostic: the
    true completely bounded distance always dominates, the lower bound need
    not.
    """

    def __init__(self, kind: str, indices, *, eps: float | None = None, test_family: str = "", **columns):
        if kind not in COLUMNS:
            raise ValidationError(f"unknown report kind {kind!r}")
        self.kind = kind
        self.indices = _integers(indices, f"malformed {kind}: indices")
        if not self.indices:
            raise ValidationError("a report needs at least one row, got an empty index list")
        if (eps is not None) != ("within_eps" in COLUMNS[kind]):
            raise ValidationError(f"eps={eps!r} does not fit a {kind}")
        if eps is not None and not (_ACCEPTS[float](eps) and math.isfinite(eps)):
            raise ValidationError(f"malformed {kind}: eps must be a finite real number, got {eps!r}")
        if not isinstance(test_family, str):
            raise ValidationError(f"malformed {kind}: test_family must be a string, got {test_family!r}")
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
        if self.eps is not None:
            floats = [col for name, col in self.columns.items() if COLUMNS[kind][name] is float]
            for n, flag, *row in zip(self.indices, self.within_eps, *floats):
                dev = max(row)
                if flag != (dev <= self.eps):
                    raise ValidationError(
                        f"malformed {kind}: within_eps is {flag} at n={n}, but the row's largest "
                        f"deviation {dev!r} is {'above' if flag else 'at most'} eps={self.eps!r}"
                    )

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def choi_dominates_strong(self) -> tuple:
        return tuple(c >= s - DOMINANCE_SLACK for c, s in zip(self.choi, self.strong))

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


def from_json_dict(doc: dict) -> Report:
    """Rebuild a report from its JSON form, dispatching on its ``kind``.

    Any kind outside :data:`COLUMNS` is rejected; so are missing fields and
    columns that are not lists.
    """
    got = doc.get("kind")
    if not isinstance(got, str) or got not in COLUMNS:
        raise ValidationError(f"not a report (kind={got!r})")
    try:
        return Report(
            got,
            doc["indices"],
            eps=doc["eps"] if "within_eps" in COLUMNS[got] else None,
            test_family=doc.get("test_family", ""),
            **{name: doc[name] for name in COLUMNS[got]},
        )
    except KeyError as exc:
        raise ValidationError(f"malformed {got}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed {got}: {exc}") from exc
