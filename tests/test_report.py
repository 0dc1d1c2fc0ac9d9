"""Report cells are type-checked, not coerced: a wrong type is a malformed report."""

import json

import numpy as np
import pytest

from channel_lab.core import ValidationError
from channel_lab.gaussian import attenuator_sequence, param_convergence_check
from channel_lab.report import Report, from_json_dict


def _gaussian_doc() -> dict:
    rep = param_convergence_check(attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5), [2, 3], eps=1e-6)
    return json.loads(json.dumps(rep.to_json_dict()))


@pytest.mark.parametrize(
    "field,cells",
    [
        ("within_eps", ["false", False]),
        ("within_eps", [0, False]),
        ("indices", [1.7, 3]),
        ("indices", [True, 3]),
        ("indices", ["2", 3]),
        ("scale_dev", ["0.5", 0.1]),
        ("scale_dev", [True, 0.1]),
    ],
)
def test_reader_rejects_cells_of_the_wrong_type(field, cells):
    doc = _gaussian_doc()
    assert from_json_dict(doc).indices == (2, 3)
    with pytest.raises(ValidationError, match="malformed gaussian-convergence-report"):
        from_json_dict({**doc, field: cells})


def test_reader_rejects_wrong_eps_and_witness_types():
    with pytest.raises(ValidationError, match="malformed gaussian-convergence-report"):
        from_json_dict({**_gaussian_doc(), "eps": "1e-6"})
    doc = Report(
        "convergence-report", (1,), strong=(0.5,), strongstar=(1.0,), choi=(0.75,),
        strong_witness=("state[0]",), strongstar_witness=("obs[0]|vec[0]",),
    ).to_json_dict()
    with pytest.raises(ValidationError, match="malformed convergence-report"):
        from_json_dict({**doc, "strong_witness": [3]})


@pytest.mark.parametrize("family", [None, 5, ["a"], 2.5, {"a": "b"}, b"family"])
def test_a_test_family_that_is_not_a_string_is_rejected(family):
    doc = _gaussian_doc()
    cols = {name: doc[name] for name in ("scale_dev", "shift_dev", "noise_dev", "char_dev", "within_eps")}
    message = f"malformed gaussian-convergence-report: test_family must be a string, got {family!r}"
    with pytest.raises(ValidationError) as built:
        Report("gaussian-convergence-report", doc["indices"], eps=doc["eps"], test_family=family, **cols)
    assert str(built.value) == message
    with pytest.raises(ValidationError) as read:
        from_json_dict({**doc, "test_family": family})
    assert str(read.value) == message


def test_an_absent_test_family_reads_as_empty():
    doc = _gaussian_doc()
    assert doc["test_family"] == "3 states x 25 grid points"
    assert from_json_dict(doc).test_family == doc["test_family"]
    assert from_json_dict({k: v for k, v in doc.items() if k != "test_family"}).test_family == ""


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_non_finite_eps_is_rejected(eps):
    doc = _gaussian_doc()
    cols = {name: doc[name] for name in ("scale_dev", "shift_dev", "noise_dev", "char_dev", "within_eps")}
    message = "malformed gaussian-convergence-report: eps must be a finite real number"
    with pytest.raises(ValidationError, match=message):
        Report("gaussian-convergence-report", doc["indices"], eps=eps, **cols)
    with pytest.raises(ValidationError, match=message):
        from_json_dict({**doc, "eps": eps})
    # the JSON spelling of a non-finite eps is rejected on reading too
    with pytest.raises(ValidationError, match=message):
        from_json_dict(json.loads(json.dumps({**doc, "eps": float(eps)})))


def test_numpy_scalars_are_accepted_and_stored_as_python_values():
    rep = Report(
        "gaussian-convergence-report",
        np.arange(1, 3),
        eps=np.float64(1e-6),
        scale_dev=(np.float64(0.5), np.float32(0.25)),
        shift_dev=(0.0, 1),
        noise_dev=(np.int64(0), 0.0),
        char_dev=(0.0, 0.0),
        within_eps=(np.bool_(False), False),
    )
    assert rep.indices == (1, 2) and all(type(n) is int for n in rep.indices)
    assert rep.scale_dev == (0.5, 0.25) and type(rep.scale_dev[0]) is float
    assert rep.shift_dev == (0.0, 1.0) and type(rep.shift_dev[1]) is float
    assert rep.within_eps == (False, False) and type(rep.within_eps[0]) is bool
    assert type(rep.eps) is float


@pytest.mark.parametrize(
    "devs,eps,flag,relation",
    [
        # only the characteristic-function deviation is above eps
        ((0.0, 0.0, 0.0, 2e-6), 1e-6, True, "above"),
        # a deviation equal to eps is within it
        ((1e-6, 0.0, 0.0, 0.0), 1e-6, False, "at most"),
        ((0.0, 0.0, 0.0, 0.0), 0.0, False, "at most"),
        ((0.5, 0.25, 0.0, 0.0), 0.25, True, "above"),
    ],
    ids=["char-dev-above", "equal-to-eps", "zero-eps", "scale-dev-above"],
)
def test_a_within_eps_flag_that_contradicts_its_row_is_rejected(devs, eps, flag, relation):
    cols = {name: [dev] for name, dev in zip(("scale_dev", "shift_dev", "noise_dev", "char_dev"), devs)}
    assert Report("gaussian-convergence-report", [4], eps=eps, within_eps=[not flag], **cols).within_eps == (not flag,)
    with pytest.raises(ValidationError) as err:
        Report("gaussian-convergence-report", [4], eps=eps, within_eps=[flag], **cols)
    assert str(err.value) == (
        f"malformed gaussian-convergence-report: within_eps is {flag} at n=4, "
        f"but the row's largest deviation {max(devs)!r} is {relation} eps={eps!r}"
    )


def test_the_reader_rejects_a_flipped_within_eps_flag():
    doc = _gaussian_doc()
    assert doc["within_eps"] == [False, False]
    with pytest.raises(ValidationError, match=r"within_eps is True at n=3, but the row's .* is above eps=1e-06$"):
        from_json_dict({**doc, "within_eps": [False, True]})


def _convergence_columns() -> dict:
    return dict(strong=[0.1], strongstar=[0.2], choi=[0.3], strong_witness=["a"], strongstar_witness=["b"])


def test_eps_belongs_to_the_gaussian_kind_only():
    with pytest.raises(ValidationError, match=r"eps=1e-06 does not fit a convergence-report"):
        Report("convergence-report", [1], eps=1e-6, **_convergence_columns())
    doc = _gaussian_doc()
    columns = {name: doc[name] for name in ("scale_dev", "shift_dev", "noise_dev", "char_dev", "within_eps")}
    with pytest.raises(ValidationError, match="eps=None does not fit a gaussian-convergence-report"):
        Report("gaussian-convergence-report", doc["indices"], **columns)


def test_a_report_has_exactly_its_kinds_columns():
    columns = _convergence_columns()
    del columns["choi"]
    with pytest.raises(ValidationError, match=r"a convergence-report has columns \['strong', 'strongstar', 'choi'"):
        Report("convergence-report", [1], **columns)


def test_unknown_report_attributes_raise_attribute_error():
    rep = Report("convergence-report", [1], **_convergence_columns())
    assert rep.strong == (0.1,)
    with pytest.raises(AttributeError, match="nonexistent"):
        rep.nonexistent
