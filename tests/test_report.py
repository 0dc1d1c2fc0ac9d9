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
        within_eps=(np.bool_(True), False),
    )
    assert rep.indices == (1, 2) and all(type(n) is int for n in rep.indices)
    assert rep.scale_dev == (0.5, 0.25) and type(rep.scale_dev[0]) is float
    assert rep.shift_dev == (0.0, 1.0) and type(rep.shift_dev[1]) is float
    assert rep.within_eps == (True, False) and type(rep.within_eps[0]) is bool
    assert type(rep.eps) is float
