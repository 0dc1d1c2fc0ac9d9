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

``convert_unitary_dilation_d2.json`` was written by ``channel-lab convert
--to unitary-dilation`` while documents still went through the stdlib JSON
encoder and U was the generic completion of the partial isometry
``(V (x) chi_0)(I (x) tau_0)*``.  U is now built factor by factor and differs
from it off the embedded subspace, so against that file every field but
``U`` must be equal and ``U (I (x) tau_0)`` must agree within 1e-12.
``convert_unitary_dilation_d2_factored.json`` was written by the factored
construction after that check and is compared byte for byte; its bytes are
also the stdlib encoder's.  ``convert_unitary_dilation_d3_signed_zeros.json``
was written by the same construction while the ancilla's kernel basis still
came from an eigensolve; its U holds signed zeros, which the constant basis
must reproduce byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from channel_lab import ensembles, serialize
from channel_lab.cli import main
from channel_lab.core import amplitude_damping_channel, opnorm

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


def test_convert_matches_golden_file(tmp_path):
    src = tmp_path / "ch.json"
    serialize.dump(amplitude_damping_channel(0.3), src)
    out = tmp_path / "dilation.json"
    assert main(["convert", "--in", str(src), "--to", "unitary-dilation", "--out", str(out)]) == 0
    got_bytes = out.read_bytes()
    want_bytes = (DATA / "convert_unitary_dilation_d2_factored.json").read_bytes()
    assert got_bytes == want_bytes
    assert want_bytes.decode() == json.dumps(json.loads(want_bytes), indent=2, sort_keys=True) + "\n"

    got = json.loads(got_bytes)
    old = json.loads((DATA / "convert_unitary_dilation_d2.json").read_text())
    assert sorted(got) == sorted(old)
    for key in sorted(set(old) - {"U"}):
        assert got[key] == old[key], key
    embed = np.kron(np.eye(old["d_in"]), serialize.complex_from_json(old["tau0"], 1).reshape(-1, 1))
    gap = (serialize.complex_from_json(got["U"], 2) - serialize.complex_from_json(old["U"], 2)) @ embed
    assert opnorm(gap) <= 1e-12


def test_convert_keeps_the_signed_zeros_of_its_golden_file(tmp_path):
    src = tmp_path / "ch.json"
    serialize.dump(ensembles.random_kraus_channel(3, 3, 2, np.random.default_rng(0)), src)
    out = tmp_path / "dilation.json"
    assert main(["convert", "--in", str(src), "--to", "unitary-dilation", "--out", str(out)]) == 0
    got = out.read_bytes()
    assert got == (DATA / "convert_unitary_dilation_d3_signed_zeros.json").read_bytes()
    assert b"-0.0" in got
