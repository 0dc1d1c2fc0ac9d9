"""Outside-in tracing of channel_lab for the traced benchmark run.

The library is not instrumented.  ``Tracer.install`` wraps the public
functions listed below and rebinds every ``channel_lab`` module attribute
that refers to the same function object, so ``sequences.dual_action`` and
``dilation.ordered_eigh`` are traced along with ``core.*``.  Each call
records one span: name, start, end, parent span and iteration id, plus a
work count where the layer has one (Kraus products, bytes, indices).
Spans stay in memory in flat columns and are written once, at the end.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from array import array

import numpy as np

#: Attribute set on every wrapper; ``assert_untraced`` looks for it.
MARK = "__bench_original__"

#: (span name, module, function) for module-level functions.
FUNCTIONS = (
    ("core.dual_action", "core", "dual_action"),
    ("core.channel_action", "core", "channel_action"),
    ("core.trace_norm", "core", "trace_norm"),
    ("core.choi_matrix", "core", "choi_matrix"),
    ("core.ordered_eigh", "core", "ordered_eigh"),
    ("core.max_action_deviation", "core", "max_action_deviation"),
    ("sequences.convergence_report", "sequences", "convergence_report"),
    ("dilation.minimal_stinespring", "dilation", "minimal_stinespring"),
    ("dilation.unitary_from_isometry", "dilation", "unitary_from_isometry"),
    ("dilation.complete_unitary", "dilation", "complete_unitary"),
    ("dilation.tracked_complete_unitary", "dilation", "tracked_complete_unitary"),
    ("serialize.dump", "serialize", "dump"),
    ("serialize.load", "serialize", "load"),
    ("cli.main", "cli", "main"),
    ("gaussian.param_convergence_check", "gaussian", "param_convergence_check"),
    ("gaussian.char_fn", "gaussian", "char_fn"),
    ("gaussian.apply_gaussian", "gaussian", "apply_gaussian"),
    ("gaussian.validate_state", "gaussian", "validate_state"),
    ("gaussian.validate_channel", "gaussian", "validate_channel"),
    ("ensembles.default_test_states", "ensembles", "default_test_states"),
    ("ensembles.matrix_unit_observables", "ensembles", "matrix_unit_observables"),
    ("parallel.pmap", "_parallel", "pmap"),
)

#: (span name, module, class, method).  Both report writers of a report
#: type share one span name.
METHODS = (
    ("sequences.term", "sequences", "ChannelSequence", "term"),
    ("core.KrausChannel.init", "core", "KrausChannel", "__post_init__"),
    ("sequences.report_write", "sequences", "ConvergenceReport", "write_csv"),
    ("sequences.report_write", "sequences", "ConvergenceReport", "write_json"),
    ("gaussian.report_write", "gaussian", "GaussianConvergenceReport", "write_csv"),
    ("gaussian.report_write", "gaussian", "GaussianConvergenceReport", "write_json"),
)

SPAN_NAMES = tuple(dict.fromkeys(n for n, *_ in FUNCTIONS + METHODS))
_ACTIONS = ("core.dual_action", "core.channel_action")


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "channel_lab" or name.startswith("channel_lab."))
    ]


def _target_classes() -> list:
    return [getattr(sys.modules["channel_lab." + mod], cls) for _, mod, cls, _ in METHODS]


def assert_untraced() -> None:
    """Raise if any channel_lab function or traced method is still wrapped."""
    namespaces = [vars(m) for m in _package_modules()] + [vars(c) for c in _target_classes()]
    for ns in namespaces:
        for key, value in ns.items():
            if hasattr(value, MARK):
                raise RuntimeError(f"{key} is still wrapped by the tracer")


class Tracer:
    """Span recorder.  ``iteration`` is set by the caller around timed work."""

    def __init__(self):
        self.iteration = -1
        self._limit = None
        self._stack = [-1]
        self._patches = []
        self.code = array("H")
        self.parent = array("q")
        self.iter = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.flag = array("b")
        self.labels = {}

    def __len__(self) -> int:
        return len(self.code)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        assert_untraced()
        mods = _package_modules()
        for name, mod, attr in FUNCTIONS:
            original = getattr(sys.modules["channel_lab." + mod], attr)
            wrapper = self._wrap(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(sys.modules["channel_lab." + mod], cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        assert_untraced()

    def _wrap(self, name: str, fn):
        code = SPAN_NAMES.index(name)
        codes, parents, iters = self.code, self.parent, self.iter
        starts, ends, works, flags = self.start, self.end, self.work, self.flag
        stack, clock = self._stack, time.perf_counter
        is_action = name in _ACTIONS
        is_report = name == "sequences.convergence_report"
        work_fn = _WORK.get(name)

        def wrapper(*args, **kwargs):
            sid = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            iters.append(self.iteration)
            works.append(0)
            flags.append(1 if is_action and args[0] is self._limit else 0)
            ends.append(0.0)
            stack.append(sid)
            if is_report:
                outer_limit, self._limit = self._limit, args[0].limit
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                if is_report:
                    self._limit = outer_limit
            if work_fn is not None:
                works[sid] = work_fn(args)
            if name == "cli.main":
                self.labels[sid] = " ".join(args[0][:2])
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- analysis -----------------------------------------------------

    def _columns(self):
        code = np.frombuffer(self.code, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        iteration = np.frombuffer(self.iter, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return code, parent, iteration, dur

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct child spans."""
        _, parent, _, dur = self._columns()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def per_iteration(self) -> dict:
        """{iteration: {span name: totals}} over spans recorded in timed work.

        Totals are ``calls``, ``s`` (inclusive time of the outermost span of
        that name, so recursion is not counted twice), ``self_s``, ``work``
        and ``flagged`` (action calls on the swept sequence's limit).
        """
        code, parent, iteration, dur = self._columns()
        outermost = ~_nested_in_same_name(code, parent)
        columns = {
            "calls": np.ones(len(code)),
            "s": np.where(outermost, dur, 0.0),
            "self_s": self.self_times(),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "flagged": np.frombuffer(self.flag, dtype=np.int8),
        }
        timed = iteration >= 0
        out = {}
        for it in np.unique(iteration[timed]):
            rows = iteration == it
            sums = {k: np.bincount(code[rows], weights=v[rows], minlength=len(SPAN_NAMES))
                    for k, v in columns.items()}
            out[int(it)] = {
                SPAN_NAMES[c]: {
                    k: (float(v[c]) if k in ("s", "self_s") else int(round(v[c])))
                    for k, v in sums.items()
                }
                for c in np.flatnonzero(sums["calls"])
            }
        return out

    def per_command(self) -> dict:
        """Median per-iteration call and work counts below each top-level CLI call.

        Keys are the first two CLI arguments, such as ``sequence compress``.
        """
        code, parent, iteration, _ = self._columns()
        is_cli = np.zeros(len(code), dtype=bool)
        is_cli[list(self.labels)] = True
        top = np.full(len(code), -1)
        cur = np.arange(len(code))
        while np.any(cur >= 0):
            hit = (cur >= 0) & (top < 0)
            hit[hit] = is_cli[cur[hit]]
            top[hit] = cur[hit]
            cur = np.where(cur >= 0, parent[np.maximum(cur, 0)], -1)
        work = np.frombuffer(self.work, dtype=np.int64)
        counts = {}
        for sid in np.flatnonzero((top >= 0) & (iteration >= 0)):
            key = (self.labels[int(top[sid])], int(iteration[sid]), SPAN_NAMES[code[sid]])
            row = counts.setdefault(key, [0, 0])
            row[0] += 1
            row[1] += int(work[sid])
        grouped = {}
        for (label, _, name), (calls, w) in counts.items():
            slot = grouped.setdefault(label, {}).setdefault(name, ([], []))
            slot[0].append(calls)
            slot[1].append(w)
        return {
            label: {
                name: {"calls": statistics.median(c), "work": statistics.median(w)}
                for name, (c, w) in sorted(names.items())
            }
            for label, names in sorted(grouped.items())
        }

    def write(self, path: str) -> None:
        """Write every span as flat columns to an ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            code=np.frombuffer(self.code, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            iteration=np.frombuffer(self.iter, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.int64),
            limit_flag=np.frombuffer(self.flag, dtype=np.int8),
        )


def _nested_in_same_name(code: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """True for spans that have an ancestor span of the same name."""
    nested = np.zeros(len(code), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        nested[live] |= code[anc[live]] == code[live]
        anc[live] = parent[anc[live]]
    return nested


def _kraus_count(args) -> int:
    return len(args[0].kraus_ops)


def _path_bytes(index: int):
    return lambda args: os.path.getsize(args[index])


def _index_count(args) -> int:
    return len(args[1])


_WORK = {
    "core.dual_action": _kraus_count,
    "core.channel_action": _kraus_count,
    "serialize.dump": _path_bytes(1),
    "serialize.load": _path_bytes(0),
    "sequences.convergence_report": _index_count,
}
