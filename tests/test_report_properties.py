"""Property test: every report survives JSON -> reader -> JSON and CSV re-emission byte for byte."""

import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from channel_lab.cli import main  # noqa: E402
from channel_lab.report import COLUMNS, EPS_KINDS, Report, from_json_dict  # noqa: E402

_CELLS = {
    float: st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    str: st.text(max_size=12),
    bool: st.booleans(),
}


@st.composite
def reports(draw):
    kind = draw(st.sampled_from(sorted(COLUMNS)))
    indices = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    columns = {
        name: draw(st.lists(_CELLS[cell], min_size=len(indices), max_size=len(indices)))
        for name, cell in COLUMNS[kind].items()
    }
    eps = draw(st.floats(allow_nan=False, allow_infinity=False)) if kind in EPS_KINDS else None
    return Report(kind, indices, eps=eps, test_family=draw(st.text(max_size=20)), **columns)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(reports())
def test_report_round_trips_through_json_and_csv(rep):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        rep.write_json(first)
        again = from_json_dict(json.loads(first.read_text()))
        again.write_json(second)
        assert second.read_bytes() == first.read_bytes()

        csv_path, reemitted = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        rep.write_csv(csv_path)
        assert main(["report", "--in", str(first), "--out", str(reemitted)]) == 0
        assert reemitted.read_bytes() == csv_path.read_bytes()
