import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import channel_lab
from channel_lab import ensembles, gaussian, serialize
from channel_lab.cli import TARGETS, build_parser, main
from channel_lab.core import amplitude_damping_channel, dephasing_channel, identity_channel
from channel_lab.dilation import (
    isometry_from_kraus,
    pad_environment,
    stinespring_from_unitary,
    unitary_from_isometry,
)
from channel_lab.gaussian import GaussianState, attenuator


def run(*argv):
    return main(list(argv))


def _plain_document(x) -> dict:
    """``serialize.document(x)`` with its arrays as plain lists, as a JSON file holds them."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in serialize.document(x).items()}


def test_convert_kraus_to_stinespring_and_back(tmp_path):
    src = tmp_path / "ch.json"
    serialize.dump(amplitude_damping_channel(0.3), src)
    mid = tmp_path / "v.json"
    assert run("convert", "--in", str(src), "--to", "stinespring", "--out", str(mid)) == 0
    out = tmp_path / "back.json"
    assert run("convert", "--in", str(mid), "--to", "kraus", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "kraus"
    assert doc["metadata"]["verified"] is True
    assert doc["metadata"]["max_action_deviation"] <= 1e-10


def test_convert_to_unitary_dilation_and_minimal(tmp_path, capsys):
    src = tmp_path / "ch.json"
    serialize.dump(dephasing_channel(0.0), src)
    dil = tmp_path / "dil.json"
    assert run("convert", "--in", str(src), "--to", "unitary-dilation", "--out", str(dil)) == 0
    assert json.loads(dil.read_text())["kind"] == "unitary-dilation"
    capsys.readouterr()
    # stdout mode prints the document itself
    assert run("convert", "--in", str(src), "--to", "minimal-stinespring") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "stinespring"
    assert doc["d_env"] == 2


def test_convert_keeps_the_isometry_of_non_kraus_sources(tmp_path, rng):
    ch = ensembles.random_kraus_channel(3, 2, 2, rng)
    padded = pad_environment(isometry_from_kraus(ch), 5)
    dilation = unitary_from_isometry(isometry_from_kraus(ch))
    for source, iso in ((padded, padded), (dilation, stinespring_from_unitary(dilation))):
        src = tmp_path / "src.json"
        serialize.dump(source, src)
        out = tmp_path / "v.json"
        assert run("convert", "--in", str(src), "--to", "stinespring", "--out", str(out)) == 0
        written = serialize.load(out)
        assert written.d_env == iso.d_env
        assert np.array_equal(written.v, iso.v)
        assert run("convert", "--in", str(src), "--to", "unitary-dilation", "--out", str(out)) == 0
        assert np.array_equal(serialize.load(out).u.u, unitary_from_isometry(iso).u.u)


def test_sequence_swap_csv_columns(tmp_path):
    prefix = tmp_path / "swap"
    assert run("sequence", "swap", "--dim", "6", "--out", str(prefix)) == 0
    rows = (tmp_path / "swap.csv").read_text().splitlines()
    assert rows[0].startswith("n,strong,strongstar,choi")
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 5
    # the witness column stays pinned at 1.0 while the probe column dies out
    assert all(float(r[2]) == 1.0 for r in body)
    assert float(body[0][1]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert all(float(r[1]) == 0.0 for r in body[1:])
    report = json.loads((tmp_path / "swap.json").read_text())
    assert report["kind"] == "convergence-report"


def test_sequence_swap_rejects_odd_dims(tmp_path, capsys):
    code = run("sequence", "swap", "--dim", "7", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "even dimension" in capsys.readouterr().err


def test_sequence_rotation_family_and_report_summary(tmp_path, capsys):
    prefix = tmp_path / "rot"
    assert run("sequence", "partial-trace-form", "--ns", "1,10,100", "--out", str(prefix)) == 0
    rows = (tmp_path / "rot.csv").read_text().splitlines()
    assert len(rows) == 4
    last = rows[-1].split(",")
    assert float(last[3]) < 1e-2
    capsys.readouterr()
    assert run("report", "--in", str(tmp_path / "rot.json")) == 0
    summary = capsys.readouterr().out
    assert "indices: 1..100 (3 rows)" in summary
    assert "choi:" in summary


def test_sequence_compress_reaches_zero_at_full_rank(tmp_path):
    src = tmp_path / "base.json"
    serialize.dump(identity_channel(4), src)
    prefix = tmp_path / "comp"
    assert run("sequence", "compress", "--in", str(src), "--out", str(prefix)) == 0
    rows = (tmp_path / "comp.csv").read_text().splitlines()
    final = rows[-1].split(",")
    assert float(final[1]) < 1e-12
    assert float(final[3]) < 1e-12


def test_sequence_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("sequence", "partial-trace-form", "--ns", "1,5", "--out", str(a)) == 0
    assert run("sequence", "partial-trace-form", "--ns", "1,5", "--out", str(b)) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_reemits_identical_csv(tmp_path):
    prefix = tmp_path / "swap"
    assert run("sequence", "swap", "--dim", "6", "--out", str(prefix)) == 0
    out = tmp_path / "again.csv"
    assert run("report", "--in", str(tmp_path / "swap.json"), "--out", str(out)) == 0
    assert out.read_bytes() == (tmp_path / "swap.csv").read_bytes()


def test_gaussian_distance_anchor(capsys):
    assert run("gaussian", "distance", "--k", "0.6", "--kprime", "0.5", "--eta", "100") == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-9)


def test_gaussian_distance_takes_a_negative_real_part_after_an_equals_sign(capsys):
    argv = ["gaussian", "distance", "--k", "0.6", "--kprime", "0.5"]
    assert run(*argv, "--eta=-1+2j") == 0
    negative = capsys.readouterr().out
    assert run(*argv, "--eta=1-2j") == 0
    assert negative == capsys.readouterr().out
    assert float(negative) > 0.1


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "nan+1j", "1+infj"])
def test_gaussian_distance_rejects_non_finite_amplitudes(eta, capsys):
    assert run("gaussian", "distance", "--k", "0.6", "--kprime", "0.5", f"--eta={eta}") == 2
    captured = capsys.readouterr()
    assert "eta must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gaussian", "converge", "--tol", "nan"],
        ["gaussian", "converge", "--tol", "inf"],
        ["gaussian", "converge", "--tol=-inf"],
    ],
)
def test_non_finite_tolerances_never_reach_a_report(argv, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    assert run(*argv, "--ns", "5", "--out", str(prefix)) == 2
    assert "eps must be a finite real number" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["converge"])
@pytest.mark.parametrize("grid", ["-5", "0"])
def test_grid_below_one_is_a_validation_error(command, grid, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    assert run("gaussian", command, "--ns", "5", "--grid", grid, "--out", str(prefix)) == 2
    assert f"--grid must be at least 1, got {grid}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


def test_grid_takes_a_lexicographic_prefix_of_the_5x5_grid(tmp_path):
    def sweep(grid):
        prefix = tmp_path / f"g{grid}"
        assert run("gaussian", "converge", "--ns", "5", "--grid", grid, "--out", str(prefix)) == 0
        return (tmp_path / f"g{grid}.json").read_bytes()

    # grid**2 points are taken from the 25 points of {-2..2}^2, so 7 adds nothing
    assert sweep("7") == sweep("5")
    assert sweep("3") != sweep("5")


def test_gaussian_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "vac.json"
    serialize.dump(GaussianState(mean=np.zeros(2), cov=np.eye(2)), good)
    assert run("gaussian", "validate", "--in", str(good)) == 0
    bad = tmp_path / "squeezed.json"
    serialize.dump(GaussianState(mean=np.zeros(2), cov=np.eye(2) / 2), bad)
    capsys.readouterr()
    assert run("gaussian", "validate", "--in", str(bad)) == 2
    assert "valid=False" in capsys.readouterr().out


def test_gaussian_apply_and_converge(tmp_path, capsys):
    assert run("gaussian", "apply", "--k", "0.5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"input", "channel", "output"}
    assert doc["output"]["sigma"][0][0] == pytest.approx(1.0)

    prefix = tmp_path / "sweep"
    assert run("gaussian", "converge", "--k", "0.5", "--ns", "20", "--out", str(prefix)) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    # index 1 would need transmissivity 1.5, so the sweep starts at 2
    assert rows[1].split(",")[0] == "2"
    assert rows[-1].split(",")[0] == "20"


def test_exit_code_three_for_parse_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("convert", "--in", str(bad), "--to", "kraus") == 3
    assert "parse error" in capsys.readouterr().err

    # a document of another schema version is detected, not misread
    bad.write_text(json.dumps({**_plain_document(identity_channel(2)), "schema_version": 2}))
    assert run("convert", "--in", str(bad), "--to", "kraus") == 3
    assert "parse error: unsupported schema_version 2" in capsys.readouterr().err
    prefix = tmp_path / "sweep"
    assert run("gaussian", "converge", "--ns", "5", "--out", str(prefix)) == 0
    report = json.loads((tmp_path / "sweep.json").read_text())
    bad.write_text(json.dumps({**report, "schema_version": 2}))
    capsys.readouterr()
    assert run("report", "--in", str(bad)) == 3
    assert "parse error: unsupported schema_version 2" in capsys.readouterr().err


def test_exit_code_two_for_invalid_values(tmp_path, capsys):
    doc = _plain_document(amplitude_damping_channel(0.2))
    doc["kraus"][0][0][0] = [9.0, 0.0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert run("convert", "--in", str(path), "--to", "kraus") == 2
    assert "validation error" in capsys.readouterr().err
    assert run("convert", "--in", str(tmp_path / "missing.json"), "--to", "kraus") == 2


def test_convert_rejects_documents_that_are_not_channels(tmp_path, capsys):
    path = tmp_path / "state.json"
    serialize.dump(GaussianState(np.zeros(2), np.eye(2)), path)
    assert run("convert", "--in", str(path), "--to", "kraus") == 2
    assert "GaussianState is not a channel representation" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    out = str(tmp_path / "x")
    for argv in (
        ("convert", "--in", "x.json", "--to", "nonsense"),
        ("sequence", "bogus", "--out", out),
        ("gaussian", "bogus"),
        # a missing required option
        ("gaussian", "converge", "--ns", "3"),
        ("gaussian", "validate"),
        # an option the command does not read, and one placed before the kind
        ("sequence", "compress", "--ns", "1:2", "--out", out),
        ("sequence", "swap", "--seed", "3", "--out", out),
        ("sequence", "partial-trace-form", "--probe", "2", "--out", out),
        ("gaussian", "distance", "--grid", "2"),
        ("sequence", "--out", out, "swap"),
        # the Gaussian sweep has one route, gaussian converge
        ("sequence", "gaussian", "--out", out),
    ):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _options(parser) -> dict:
    """Every command, kind and action of ``parser``, with the sorted options its own parser takes."""
    commands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not commands:
        return {(): sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))}
    return {
        (name, *path): options
        for name, sub in commands[0].choices.items()
        for path, options in _options(sub).items()
    }


#: The options of every command.  Adding or dropping one edits this table.
CLI_OPTIONS = {
    ("convert",): ["--in", "--out", "--to"],
    ("sequence", "compress"): ["--dim", "--in", "--out", "--ranks", "--seed"],
    ("sequence", "swap"): ["--dim", "--out", "--probe"],
    ("sequence", "partial-trace-form"): ["--dim", "--dim-env", "--dim-out", "--ns", "--out", "--seed"],
    ("gaussian", "apply"): ["--channel", "--in", "--k", "--out"],
    ("gaussian", "validate"): ["--in"],
    ("gaussian", "distance"): ["--eta", "--k", "--kprime"],
    ("gaussian", "converge"): ["--grid", "--k", "--ns", "--out", "--tol"],
    ("report",): ["--in", "--out"],
}


def test_every_command_takes_exactly_the_options_it_reads():
    assert _options(build_parser()) == CLI_OPTIONS
    swept = [path for path in CLI_OPTIONS if path[0] in ("sequence", "gaussian")]
    assert sum(len(CLI_OPTIONS[path]) for path in swept) == 27


@pytest.mark.parametrize(
    "argv",
    [["sequence", "partial-trace-form", "--ns", "5:1"], ["gaussian", "converge", "--ns", "0"]],
    ids=["partial-trace-form", "gaussian"],
)
def test_empty_sweep_is_a_validation_error(argv, tmp_path, capsys):
    prefix = tmp_path / "empty"
    assert run(*argv, "--out", str(prefix)) == 2
    assert "at least one row" in capsys.readouterr().err
    assert not (tmp_path / "empty.csv").exists()
    assert not (tmp_path / "empty.json").exists()


def test_report_rejects_malformed_documents(tmp_path, capsys):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]\n")
    assert run("report", "--in", str(array)) == 3
    assert "expected a JSON object" in capsys.readouterr().err

    prefix = tmp_path / "sweep"
    assert run("gaussian", "converge", "--ns", "5", "--out", str(prefix)) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    broken = tmp_path / "broken.json"
    for field in ("indices", "char_dev"):
        broken.write_text(json.dumps({**doc, field: None}))
        capsys.readouterr()
        assert run("report", "--in", str(broken)) == 2
        assert "malformed gaussian-convergence-report" in capsys.readouterr().err
    missing = {k: v for k, v in doc.items() if k != "indices"}
    broken.write_text(json.dumps(missing))
    assert run("report", "--in", str(broken)) == 2
    assert "missing field 'indices'" in capsys.readouterr().err


@pytest.mark.parametrize("family", [None, 5, ["a"]], ids=["null", "number", "list"])
def test_report_rejects_a_test_family_that_is_not_a_string(family, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    assert run("gaussian", "converge", "--ns", "5", "--out", str(prefix)) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({**doc, "test_family": family}))
    capsys.readouterr()
    assert run("report", "--in", str(broken)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: malformed gaussian-convergence-report: "
        f"test_family must be a string, got {family!r}\n"
    )



def test_report_rejects_a_within_eps_flag_its_row_contradicts(tmp_path, capsys):
    prefix = tmp_path / "sweep"
    assert run("gaussian", "converge", "--ns", "5", "--out", str(prefix)) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["indices"][0] == 2 and doc["within_eps"][0] is False
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({**doc, "within_eps": [True] + doc["within_eps"][1:]}))
    capsys.readouterr()
    assert run("report", "--in", str(broken), "--out", str(tmp_path / "re.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "validation error: malformed gaussian-convergence-report: within_eps is True at n=2, "
        "but the row's largest deviation "
    )
    assert captured.err.endswith(" is above eps=1e-06\n")
    assert not (tmp_path / "re.csv").exists()


@pytest.mark.parametrize(
    "argv,command,unknown",
    [
        (("sequence", "compress", "--ns", "1:2"), "channel-lab sequence compress", "--ns 1:2"),
        (("gaussian", "distance", "--grid", "2"), "channel-lab gaussian distance", "--grid 2"),
        (("convert", "--in", "x.json", "--to", "kraus", "--seed", "3"), "channel-lab convert", "--seed 3"),
    ],
)
def test_an_option_the_command_does_not_take_is_reported_with_its_usage(argv, command, unknown, tmp_path, capsys):
    out = ("--out", str(tmp_path / "x")) if argv[0] == "sequence" else ()
    with pytest.raises(SystemExit) as err:
        run(*argv, *out)
    assert err.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines[0].startswith(f"usage: {command} [-h]")
    assert lines[-1] == f"{command}: error: unrecognized arguments: {unknown}"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


_DOCUMENTS = {
    "kraus": (lambda: amplitude_damping_channel(0.3), ["convert", "--to", "kraus"], "d_in"),
    "stinespring": (lambda: isometry_from_kraus(dephasing_channel(0.5)), ["convert", "--to", "kraus"], "d_env"),
    "unitary-dilation": (
        lambda: unitary_from_isometry(isometry_from_kraus(dephasing_channel(0.5))),
        ["convert", "--to", "kraus"],
        "d_anc",
    ),
    "gaussian-state": (lambda: GaussianState(mean=np.zeros(2), cov=np.eye(2)), ["gaussian", "validate"], "s"),
    "gaussian-channel": (lambda: attenuator(0.5), ["gaussian", "validate"], "s_out"),
}


@pytest.mark.parametrize("kind", sorted(_DOCUMENTS))
@pytest.mark.parametrize("bad", ["two", True, 2.5, None])
def test_non_integer_dimensions_are_parse_errors(kind, bad, tmp_path, capsys):
    make, argv, field = _DOCUMENTS[kind]
    doc = _plain_document(make())
    assert doc["kind"] == kind
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(*argv, "--in", str(path)) == 0
    capsys.readouterr()
    path.write_text(json.dumps({**doc, field: bad}))
    assert run(*argv, "--in", str(path)) == 3
    assert f"field '{field}' must be an integer" in capsys.readouterr().err


def test_integral_float_dimensions_still_load(tmp_path):
    doc = _plain_document(isometry_from_kraus(dephasing_channel(0.5)))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, "d_out": 2.0, "d_in": 2.0}))
    assert run("convert", "--in", str(path), "--to", "kraus") == 0


def test_convert_stdout_matches_the_written_file(tmp_path, capsys):
    src = tmp_path / "ch.json"
    serialize.dump(amplitude_damping_channel(0.3), src)
    for to in ("kraus", "stinespring", "minimal-stinespring", "unitary-dilation"):
        out = tmp_path / f"{to}.json"
        assert run("convert", "--in", str(src), "--to", to, "--out", str(out)) == 0
        capsys.readouterr()
        assert run("convert", "--in", str(src), "--to", to) == 0
        assert capsys.readouterr().out == out.read_text()


def _assert_stdlib_layout(text: str) -> None:
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("to", sorted(TARGETS))
def test_convert_documents_have_the_stdlib_layout(to, tmp_path, capsys, rng):
    src = tmp_path / "ch.json"
    serialize.dump(ensembles.random_kraus_channel(3, 2, 2, rng), src)
    out = tmp_path / "out.json"
    assert run("convert", "--in", str(src), "--to", to, "--out", str(out)) == 0
    capsys.readouterr()
    assert run("convert", "--in", str(src), "--to", to) == 0
    for text in (src.read_text(), out.read_text(), capsys.readouterr().out):
        _assert_stdlib_layout(text)


def test_large_unitary_dilation_has_the_stdlib_layout(tmp_path, capsys, rng):
    # d=6 with 6 Kraus operators: U is 216 x 216 and almost all of its entries are +0.0.
    src = tmp_path / "ch.json"
    serialize.dump(ensembles.random_kraus_channel(6, 6, 6, rng), src)
    out = tmp_path / "ud.json"
    assert run("convert", "--in", str(src), "--to", "unitary-dilation", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("convert", "--in", str(src), "--to", "unitary-dilation") == 0
    text = out.read_text()
    assert capsys.readouterr().out == text
    assert np.shape(json.loads(text)["U"]) == (216, 216, 2)
    _assert_stdlib_layout(text)


def test_gaussian_apply_writes_three_documents_in_a_cli_wrapper(tmp_path, capsys):
    state, channel = GaussianState(mean=[0.3, -1.25], cov=[[2.0, 0.1], [0.1, 1.5]]), attenuator(0.37)
    serialize.dump(state, tmp_path / "state.json")
    serialize.dump(channel, tmp_path / "ch.json")
    out = tmp_path / "out.json"
    argv = ["--in", str(tmp_path / "state.json"), "--channel", str(tmp_path / "ch.json"), "--out", str(out)]
    assert run("gaussian", "apply", *argv) == 0
    wrapper = json.loads(out.read_text())
    assert sorted(wrapper) == ["channel", "input", "output"]
    expected = {"input": state, "channel": channel, "output": gaussian.apply_gaussian(channel, state)}
    for name, doc in wrapper.items():
        assert _plain_document(serialize.from_json_obj(doc)) == _plain_document(expected[name])
    # the wrapper itself is no document: it has no kind
    capsys.readouterr()
    assert run("gaussian", "validate", "--in", str(out)) == 3
    assert capsys.readouterr().err == "parse error: missing field 'kind'\n"


def test_gaussian_apply_documents_have_the_stdlib_layout(tmp_path, capsys):
    state, channel, out = tmp_path / "state.json", tmp_path / "channel.json", tmp_path / "out.json"
    serialize.dump(GaussianState(mean=[0.3, -1.25], cov=[[2.0, 0.1], [0.1, 1.5]]), state)
    serialize.dump(attenuator(0.37), channel)
    argv = ("gaussian", "apply", "--in", str(state), "--channel", str(channel))
    assert run(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert run(*argv) == 0
    for text in (out.read_text(), capsys.readouterr().out):
        _assert_stdlib_layout(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("sequence", "swap", "--dim", "6"),
        ("sequence", "compress", "--dim", "3"),
        ("gaussian", "converge", "--ns", "12"),
    ],
    ids=["swap", "compress", "gaussian"],
)
def test_report_documents_have_the_stdlib_layout(argv, tmp_path):
    prefix = tmp_path / "rep"
    assert run(*argv, "--out", str(prefix)) == 0
    _assert_stdlib_layout((tmp_path / "rep.json").read_text())


def test_plain_value_errors_are_validation_errors(tmp_path, capsys):
    assert run("sequence", "compress", "--ranks", "1,x", "--out", str(tmp_path / "r")) == 2
    assert "validation error: invalid literal for int()" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_gaussian_sweep_with_k_near_one_fails_fast(tmp_path):
    # k + 1/n stays above 1 for n up to about 1e12: the index search must not walk there.
    src = str(Path(channel_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["gaussian", "converge", "--k", "0.999999999999", "--ns", "3", "--out", "unused"]
    proc = subprocess.run(
        [sys.executable, "-m", "channel_lab.cli", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert "no valid sweep indices: k + 1/n stays above 1 up to n = 3" in proc.stderr


def test_gaussian_sweep_starts_at_the_first_valid_index(tmp_path):
    prefix = tmp_path / "sweep"
    assert run("gaussian", "converge", "--k", "0.75", "--ns", "10", "--out", str(prefix)) == 0
    indices = json.loads((tmp_path / "sweep.json").read_text())["indices"]
    assert indices == list(range(4, 11))


def _pairs(m):
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


_KRAUS = _plain_document(dephasing_channel(0.5))
_STINESPRING = _plain_document(pad_environment(isometry_from_kraus(dephasing_channel(0.5)), 3))
_DILATION = {
    "schema_version": 1,
    "kind": "unitary-dilation",
    "d_in": 2,
    "d_anc": 3,
    "d_out": 2,
    "d_env": 3,
    "U": _pairs(np.eye(6)),
    "tau0": _pairs([1.0, 0.0, 0.0]),
}
_ATTENUATOR = _plain_document(attenuator(0.5))
_STATE = _plain_document(GaussianState(mean=np.zeros(2), cov=np.eye(2)))
_HUGE = 10**400  # json writes it as the integer literal 1 followed by 400 zeros


def _kraus_entry(value) -> dict:
    """``_KRAUS`` with the real part of its first entry replaced by ``value``."""
    kraus = json.loads(json.dumps(_KRAUS["kraus"]))
    kraus[0][0][0][0] = value
    return {**_KRAUS, "kraus": kraus}
_CONVERT = ["convert", "--to", "kraus"]
_VALIDATE = ["gaussian", "validate"]


@pytest.mark.parametrize(
    "doc, argv, code, message",
    [
        ({**_STINESPRING, "d_out": 0}, _CONVERT, 2, "dimensions must be positive"),
        (
            {**_STINESPRING, "V": _STINESPRING["V"][:5]},
            _CONVERT,
            2,
            "isometry of shape (5, 2) does not match d_out*d_env = 2*3",
        ),
        ({**_DILATION, "d_env": 2}, _CONVERT, 2, "dimension products disagree: 2*3 != 2*2"),
        (
            {**_DILATION, "U": _pairs(np.eye(4))},
            _CONVERT,
            2,
            "unitary of dim 4 does not act on a 2*3 space",
        ),
        ({**_DILATION, "d_anc": 0}, _CONVERT, 2, "dimensions must be positive"),
        (
            {**_DILATION, "tau0": _pairs([np.nan, 0.0, 0.0])},
            _CONVERT,
            2,
            "validation error: ancilla vector contains non-finite entries\n",
        ),
        (
            {**_ATTENUATOR, "K": np.ones((3, 2)).tolist()},
            _VALIDATE,
            2,
            "scale matrix must be 2s_in x 2s_out, got shape (3, 2)",
        ),
        ({**_ATTENUATOR, "ell": [0.0, 0.0, 0.0]}, _VALIDATE, 2, "shift of shape (3,)"),
        ({**_ATTENUATOR, "alpha": np.eye(3).tolist()}, _VALIDATE, 2, "noise of shape (3, 3)"),
        (
            {**_ATTENUATOR, "alpha": [[1.0, 0.5], [0.0, 1.0]]},
            _VALIDATE,
            2,
            "noise matrix is not symmetric",
        ),
        (
            {**_ATTENUATOR, "K": [[float("nan"), 0.0], [0.0, 0.5]]},
            _VALIDATE,
            2,
            "scale matrix contains non-finite entries",
        ),
        ({**_STATE, "m": "abc"}, _VALIDATE, 3, "not a numeric array"),
        (
            {**_KRAUS, "kraus": [_pairs(np.eye(2)), _pairs(np.zeros((2, 3)))]},
            _CONVERT,
            3,
            "not a numeric array",
        ),
        ({**_STATE, "sigma": [1.0, 1.0]}, _VALIDATE, 3, "expected a rank-2 real array"),
        (_kraus_entry("1"), _CONVERT, 3, "not a numeric array: entries must be numbers, got str"),
        (_kraus_entry(True), _CONVERT, 3, "not a numeric array: entries must be numbers, got bool"),
        (_kraus_entry(None), _CONVERT, 3, "not a numeric array: entries must be numbers, got NoneType"),
        (_kraus_entry(_HUGE), _CONVERT, 3, "not a numeric array: int too large to convert to float"),
        ({**_STATE, "m": [0, False]}, _VALIDATE, 3, "not a numeric array: entries must be numbers, got bool"),
        ({**_STATE, "m": [0, _HUGE]}, _VALIDATE, 3, "not a numeric array: int too large to convert to float"),
    ],
    ids=[
        "stinespring-zero-dim",
        "stinespring-shape",
        "dilation-products",
        "dilation-unitary-dim",
        "dilation-zero-dim",
        "dilation-nan-ancilla",
        "gaussian-channel-scale",
        "gaussian-channel-shift",
        "gaussian-channel-noise-shape",
        "gaussian-channel-asymmetric",
        "gaussian-channel-nan",
        "gaussian-state-non-numeric",
        "kraus-ragged",
        "gaussian-state-rank",
        "kraus-string-entry",
        "kraus-bool-entry",
        "kraus-null-entry",
        "kraus-huge-int-entry",
        "gaussian-state-bool-entry",
        "gaussian-state-huge-int-entry",
    ],
)
def test_document_rejections(doc, argv, code, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(*argv, "--in", str(path)) == code
    captured = capsys.readouterr()
    prefix = "validation error: " if code == 2 else "parse error: "
    assert captured.err.startswith(prefix)
    assert message in captured.err
    assert captured.out == ""


def test_an_infinite_imaginary_part_is_a_validation_error_without_a_warning(tmp_path, capsys):
    # json cannot write 1e400, so the text is patched; the value parses to +inf.
    kraus = json.loads(json.dumps(_KRAUS["kraus"]))
    kraus[0][0][0][1] = "IMAG"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_KRAUS, "kraus": kraus}).replace('"IMAG"', "1e400"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*_CONVERT, "--in", str(path)) == 2
    assert caught == []
    assert capsys.readouterr().err == "validation error: Kraus operator contains non-finite entries\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gaussian", "converge", "--k", "1.0"], "limit transmissivity must lie in (0, 1), got 1.0"),
        (
            ["gaussian", "converge", "--k", "0.95", "--ns", "10"],
            "no valid sweep indices: k + 1/n stays above 1 up to n = 10",
        ),
        (["sequence", "swap", "--dim", "8", "--probe", "8"], "probe index must lie in 1..7, got 8"),
        (
            ["sequence", "partial-trace-form", "--dim", "6", "--dim-out", "2", "--dim-env", "3"],
            "embedding needs d_in < d_out*d_env, got 6 >= 6",
        ),
        # A dimension below the smallest the command can use is named before any probe or shape.
        (["sequence", "swap", "--dim", "0"], "the swap family needs dimension >= 3, got 0"),
        (["sequence", "swap", "--dim", "-4"], "the swap family needs dimension >= 3, got -4"),
        (["sequence", "partial-trace-form", "--dim", "0"], "input dimension must be positive, got 0"),
        (["sequence", "partial-trace-form", "--dim", "-1"], "input dimension must be positive, got -1"),
        # The output and environment dimensions are named before their product is compared.
        (["sequence", "partial-trace-form", "--dim-out", "0"], "output dimension d_out must be positive, got 0"),
        (["sequence", "partial-trace-form", "--dim-env", "-2"], "environment dimension d_env must be positive, got -2"),
        (["sequence", "compress", "--dim", "0"], "dimension must be positive, got 0"),
        (["sequence", "compress", "--dim", "-1"], "dimension must be positive, got -1"),
    ],
    ids=[
        "k-outside-interval",
        "no-valid-index",
        "probe-out-of-range",
        "embedding-too-small",
        "swap-zero-dim",
        "swap-negative-dim",
        "partial-trace-form-zero-dim",
        "partial-trace-form-negative-dim",
        "partial-trace-form-zero-dim-out",
        "partial-trace-form-negative-dim-env",
        "compress-zero-dim",
        "compress-negative-dim",
    ],
)
def test_sweep_parameter_errors_exit_two(argv, message, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    assert run(*argv, "--out", str(prefix)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gaussian", "validate", "--in", "{kraus}"], "cannot validate objects of type KrausChannel"),
        (["gaussian", "apply", "--channel", "{state}"], "the --channel file must hold a gaussian-channel"),
        (["gaussian", "apply", "--in", "{channel}"], "the --in file must hold a gaussian-state"),
        (["gaussian", "validate", "--in", "{report}"], "cannot validate objects of type Report"),
        (["gaussian", "apply", "--in", "{report}"], "the --in file must hold a gaussian-state"),
        (
            ["convert", "--in", "{report}", "--to", "kraus"],
            "object of type Report is not a channel representation",
        ),
        (
            ["sequence", "compress", "--in", "{report}", "--out", "{prefix}"],
            "object of type Report is not a channel representation",
        ),
        (["report", "--in", "{kraus}"], "the --in file must hold a report"),
    ],
    ids=[
        "validate-kraus",
        "apply-state-as-channel",
        "apply-channel-as-state",
        "validate-report",
        "apply-report-as-state",
        "convert-report",
        "compress-report",
        "report-kraus",
    ],
)
def test_commands_reject_documents_of_the_wrong_kind(argv, message, tmp_path, capsys):
    """A well-formed document of a kind the command cannot use exits 2, on every command."""
    paths = {
        "kraus": tmp_path / "kraus.json",
        "state": tmp_path / "state.json",
        "channel": tmp_path / "ch.json",
        "prefix": tmp_path / "sweep",
        "report": tmp_path / "sweep.json",
    }
    serialize.dump(identity_channel(2), paths["kraus"])
    serialize.dump(GaussianState(mean=np.zeros(2), cov=np.eye(2)), paths["state"])
    serialize.dump(attenuator(0.5), paths["channel"])
    assert run("gaussian", "converge", "--ns", "5", "--out", str(paths["prefix"])) == 0
    capsys.readouterr()
    assert run(*[arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {message}\n"
    assert captured.out == ""


def test_paths_that_cannot_be_read_or_written_exit_two(tmp_path, capsys):
    # A directory stands for any path open() refuses; permissions do not bind every user.
    folder = tmp_path / "folder"
    folder.mkdir()
    report = tmp_path / "sweep"
    assert run("gaussian", "converge", "--ns", "5", "--out", str(report)) == 0
    capsys.readouterr()
    for argv in (
        ("convert", "--in", str(folder), "--to", "kraus"),
        ("gaussian", "apply", "--out", str(folder)),
        ("report", "--in", f"{report}.json", "--out", str(folder)),
    ):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"validation error: [Errno 21] Is a directory: {str(folder)!r}\n"
        assert captured.out == ""


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "café"}'.encode("latin-1"))
    for argv in (("convert", "--to", "kraus"), ("gaussian", "validate"), ("report",)):
        assert run(*argv, "--in", str(path)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error: invalid JSON in {path}: 'utf-8' codec can't decode")
        assert captured.out == ""
