"""Fixed-seed CLI reports against saved golden files.

The files under ``tests/data/`` were written by the loop implementations
of the two sweeps: the per-observable defect sweep and the per-point
Gaussian characteristic-function sweep.  The batched kernels must
reproduce every deviation column within 1e-12, and the indices,
witnesses, parameter columns, flags and test family exactly.

The ``.csv`` files were written by the CLI while each sweep still had its
own report class.  Today's CSV, and the CSV that ``channel-lab report``
re-emits from the golden JSON, must keep their layout: the same header,
line endings and non-float cells, and floats within 1e-12.
"""

import json
from pathlib import Path

import pytest

from channel_lab.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "compress_dim6_seed7": ["sequence", "compress", "--dim", "6", "--seed", "7"],
    "partial_trace_form_default": ["sequence", "partial-trace-form"],
    "swap_dim16": ["sequence", "swap", "--dim", "16"],
}


def _run(argv, prefix) -> tuple[bytes, bytes]:
    assert main(argv + ["--out", str(prefix)]) == 0
    return Path(f"{prefix}.csv").read_bytes(), Path(f"{prefix}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, tmp_path):
    first = _run(CASES[name], tmp_path / "a")
    assert _run(CASES[name], tmp_path / "b") == first

    got = json.loads(first[1])
    want = json.loads((DATA / f"{name}.json").read_text())
    assert sorted(got) == sorted(want)
    for key in ("kind", "schema_version", "indices", "strong_witness",
                "strongstar_witness", "test_family"):
        assert got[key] == want[key], key
    for key in ("strong", "strongstar", "choi"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12), key


def test_gaussian_report_matches_golden_file(tmp_path):
    argv = ["gaussian", "converge", "--k", "0.5", "--ns", "100"]
    first = _run(argv, tmp_path / "a")
    assert _run(argv, tmp_path / "b") == first

    got = json.loads(first[1])
    want = json.loads((DATA / "gaussian_converge_default.json").read_text())
    assert sorted(got) == sorted(want)
    for key in ("kind", "schema_version", "indices", "scale_dev", "shift_dev",
                "noise_dev", "eps", "within_eps", "test_family"):
        assert got[key] == want[key], key
    assert got["char_dev"] == pytest.approx(want["char_dev"], rel=0, abs=1e-12)


CSV_CASES = {**CASES, "gaussian_converge_default": ["gaussian", "converge", "--k", "0.5", "--ns", "100"]}


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return "." in cell or "e" in cell


def _assert_csv_layout(got: bytes, want: bytes):
    got_rows = [line.split(",") for line in got.decode().split("\r\n")]
    want_rows = [line.split(",") for line in want.decode().split("\r\n")]
    assert got_rows[0] == want_rows[0]
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        for g, w in zip(got_row, want_row):
            if _is_float(w):
                assert _is_float(g) and float(g) == pytest.approx(float(w), rel=0, abs=1e-12), (g, w)
            else:
                assert g == w


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_report_csv_matches_golden_file(name, tmp_path):
    want = (DATA / f"{name}.csv").read_bytes()
    _assert_csv_layout(_run(CSV_CASES[name], tmp_path / "a")[0], want)

    out = tmp_path / "again.csv"
    assert main(["report", "--in", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
    _assert_csv_layout(out.read_bytes(), want)
