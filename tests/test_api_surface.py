"""The per-call knobs of the public API, pinned.

Tolerances and probe-family sizes are module constants that no call
overrides.  ``DEFAULTED`` lists every parameter with a default value of the
public functions, classes and methods defined in the ``channel_lab``
modules, so a change that adds or drops a knob has to edit this list too.
"""

import importlib
import inspect
import pkgutil
from types import FunctionType

import channel_lab

DEFAULTED = [
    "cli.main(argv)",
    "core.dephasing_channel(keep)",
    "ensembles.random_density(rank)",
    "gaussian.identity_gaussian(modes)",
    "gaussian.param_convergence_check(grid)",
    "gaussian.vacuum(modes)",
    "gaussian.z_grid(max_points)",
    "report.Report(eps)",
    "report.Report(test_family)",
    "sequences.convergence_report(test_family)",
    "serialize.document(metadata)",
]


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            if not issubclass(obj, Exception):
                yield name, obj
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and isinstance(raw, (FunctionType, classmethod, staticmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def defaulted_parameters() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(channel_lab.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"channel_lab.{info.name}")
        for qualname, fn in _public_callables(mod):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not param.empty:
                    found.append(f"{info.name}.{qualname}({param.name})")
    return sorted(found)


def test_defaulted_parameters_are_pinned():
    assert defaulted_parameters() == DEFAULTED
