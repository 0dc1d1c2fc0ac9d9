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
import json
import math

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


def dump_json(doc, fh) -> None:
    """Write ``doc`` to an open text file in the one JSON layout: keys sorted, indent 2, trailing newline.

    It streams, so a large document is never held as one string.
    """
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


class Report:
    """Per-index results of a convergence sweep, one column per measured quantity.

    Columns are passed by name and read back as attributes (``rep.strong``).
    Construction checks the kind, that there is at least one row, that every
    column has one cell per index, and that float cells are finite and
    nonnegative (they are all defects or deviations).  Cells are converted to
    their column's type.

    For ``convergence-report`` tables, ``choi_dominates_strong`` records per
    index whether the Choi lower bound weakly dominates the strong defect seen
    on the test family.  It is a diagnostic: the true completely bounded
    distance always dominates, the lower bound need not.
    """

    def __init__(self, kind: str, indices, *, eps: float | None = None, test_family: str = "", **columns):
        if kind not in COLUMNS:
            raise ValidationError(f"unknown report kind {kind!r}")
        self.kind = kind
        self.indices = tuple(int(n) for n in indices)
        if not self.indices:
            raise ValidationError("a report needs at least one row, got an empty index list")
        if (eps is not None) != (kind in EPS_KINDS):
            raise ValidationError(f"eps={eps!r} does not fit a {kind}")
        if set(columns) != set(COLUMNS[kind]):
            raise ValidationError(f"a {kind} has columns {list(COLUMNS[kind])}, got {list(columns)}")
        self.columns = {}
        for name, cell in COLUMNS[kind].items():
            col = tuple(cell(x) for x in columns[name])
            if len(col) != len(self.indices):
                raise ValidationError(f"column {name} has wrong length")
            if cell is float and not all(math.isfinite(x) and x >= 0 for x in col):
                raise ValidationError(
                    f"column {name} has non-finite or negative entries; defects must be finite and nonnegative"
                )
            self.columns[name] = col
        self.eps = eps
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
            eps=float(doc["eps"]) if got in EPS_KINDS else None,
            test_family=str(doc.get("test_family", "")),
            **{name: doc[name] for name in COLUMNS[got]},
        )
    except KeyError as exc:
        raise ValidationError(f"malformed {got}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed {got}: {exc}") from exc
