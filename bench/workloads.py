"""The three benchmark workloads.

Each workload is a closed loop with one caller.  ``prepare(i)`` draws the
inputs of iteration i from ``default_rng([seed, i])`` outside the timed
region, ``run`` is the timed work, and ``check`` runs the oracle on what
``run`` produced and returns the number of items done.  Why each workload
exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import oracles

#: Problem sizes.  "tiny" only exists so the harness smoke test is fast.
SIZES = {
    "full": {
        "compress_dim": 10,
        "ptf": (8, 4, 8, 60),  # d_in, d_out, d_env, indices 1..n
        "convert_small": (6, 6, 3),  # d, Kraus operators, Choi rank
        "convert_large": (16, 8, 4),
        "frames": (32, 24, 12),  # partial isometries, dimension, rank
        "gaussian": (2, 40, 625),  # modes, indices 1..n, grid points
        "growth_compress": (8, 12),
        "growth_stinespring": (16, 24),
    },
    "tiny": {
        "compress_dim": 3,
        "ptf": (2, 2, 2, 3),
        "convert_small": (2, 2, 1),
        "convert_large": (3, 2, 1),
        "frames": (2, 4, 2),
        "gaussian": (2, 3, 16),
        "growth_compress": (3, 4),
        "growth_stinespring": (4, 6),
    },
}


class IterationFailed(RuntimeError):
    """The timed work itself reported failure, e.g. a nonzero CLI exit code."""


def run_cli(cli, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise IterationFailed(f"channel-lab {' '.join(argv[:2])} exited with code {code}")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def redundant_kraus(d: int, n_ops: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """``n_ops`` Kraus operators of a random channel whose Choi rank is ``rank``.

    A Haar isometry sliced into ``rank`` operators, mixed into ``n_ops``
    operators by an n_ops x rank isometry, which keeps trace preservation.
    """
    v = haar_unitary(d * rank, rng)[:, :d].reshape(d, rank, d).transpose(1, 0, 2)
    mix = haar_unitary(n_ops, rng)[:, :rank]
    return np.einsum("kr,rab->kab", mix, v)


def write_kraus_document(ops: np.ndarray, path: str) -> None:
    pairs = np.stack([ops.real, ops.imag], axis=-1).tolist()
    doc = {"schema_version": 1, "kind": "kraus", "d_in": ops.shape[2], "d_out": ops.shape[1], "kraus": pairs}
    with open(path, "w") as fh:
        json.dump(doc, fh)


@dataclass
class Workload:
    lab: object  # the channel_lab package, imported from the checkout
    seed: int
    workdir: str
    size: dict

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])


class SequenceSweep(Workload):
    """Two convergence reports through the CLI: compress and partial-trace-form."""

    name = "sequence-sweep"

    def prepare(self, i: int) -> dict:
        s_compress, s_form = (int(x) for x in self.rng(i).integers(0, 2**31, size=2))
        d = self.size["compress_dim"]
        d_in, d_out, d_env, n_max = self.size["ptf"]
        return {
            "seeds": (s_compress, s_form),
            "argvs": [
                ["sequence", "compress", "--dim", str(d), "--seed", str(s_compress),
                 "--out", self.path("compress")],
                ["sequence", "partial-trace-form", "--dim", str(d_in), "--dim-out", str(d_out),
                 "--dim-env", str(d_env), "--ns", f"1:{n_max}", "--seed", str(s_form),
                 "--out", self.path("form")],
            ],
        }

    def run(self, inputs: dict):
        for argv in inputs["argvs"]:
            run_cli(self.lab.cli, argv)

    def check(self, inputs: dict, _) -> int:
        s_compress, s_form = inputs["seeds"]
        d = self.size["compress_dim"]
        ranks = range(1, d + 1)
        rows = oracles.check_convergence_report(
            self.path("compress"), ranks, [oracles.compress_superop(d, r) for r in ranks],
            np.eye(d * d, dtype=np.complex128), d, d, s_compress,
        )
        d_in, d_out, d_env, n_max = self.size["ptf"]
        ns = range(1, n_max + 1)
        rows += oracles.check_convergence_report(
            self.path("form"), ns,
            [oracles.rotation_form_superop(d_in, d_out, d_env, 1.0 / n) for n in ns],
            oracles.rotation_form_superop(d_in, d_out, d_env, 0.0), d_in, d_out, s_form,
        )
        return rows


class ConvertBatch(Workload):
    """CLI conversions of a small and a large channel, then two unitary completions."""

    name = "convert-batch"
    SMALL_TARGETS = ("kraus", "stinespring", "minimal-stinespring", "unitary-dilation")

    def prepare(self, i: int) -> dict:
        rng = self.rng(i)
        small = redundant_kraus(*self.size["convert_small"], rng)
        large = redundant_kraus(*self.size["convert_large"], rng)
        write_kraus_document(small, self.path("small.json"))
        write_kraus_document(large, self.path("large.json"))
        jobs = [(small, self.path("small.json"), to, self.path(f"small-{to}.json")) for to in self.SMALL_TARGETS]
        jobs.append((large, self.path("large.json"), "minimal-stinespring", self.path("large-minimal.json")))

        count, dim, rank = self.size["frames"]
        frame = haar_unitary(dim, rng)[:, :rank]
        w0 = frame @ frame.conj().T
        ws = [self.lab.PartialIsometry(oracles.givens(dim, dim - 1, 0, 1.0 / n) @ w0) for n in range(1, count + 1)]
        return {"jobs": jobs, "frames": ws}

    def run(self, inputs: dict):
        lab = self.lab
        loaded = []
        for _, src, to, out in inputs["jobs"]:
            run_cli(lab.cli, ["convert", "--in", src, "--to", to, "--out", out])
            loaded.append(lab.serialize.load(out))
        ws = inputs["frames"]
        completed = [lab.complete_unitary(w) for w in ws]
        tracked = lab.tracked_complete_unitary(ws, completed[0])
        return completed, tracked

    def check(self, inputs: dict, result) -> int:
        for ops, _, to, out in inputs["jobs"]:
            oracles.check_conversion(ops, out, to)
        completed, tracked = result
        for kind, us in (("completion", completed), ("tracked completion", tracked)):
            oracles.require(len(us) == len(inputs["frames"]), f"{kind}: wrong number of unitaries")
            for n, (u, w) in enumerate(zip(us, inputs["frames"]), start=1):
                oracles.check_completion(u.u, w.w, f"{kind} {n}")
        return len(inputs["jobs"]) + 1


def gaussian_params(k: np.ndarray, shift: np.ndarray, n: int | None):
    """(scale, shift, noise) of term n; ``None`` gives the limit."""
    kn = k if n is None else k + 0.2 / n
    ln = shift if n is None else shift + 0.1 / n
    return np.diag(kn), ln, np.diag(1.0 - kn * kn + 0.1)


class GaussianSweep(Workload):
    """``param_convergence_check`` on a seeded 2-mode sequence, report written as CSV+JSON."""

    name = "gaussian-sweep"

    def prepare(self, i: int) -> dict:
        rng = self.rng(i)
        modes, n_max, _ = self.size["gaussian"]
        k = np.repeat(rng.uniform(0.3, 0.7, size=modes), 2)
        shift = rng.uniform(-0.5, 0.5, size=2 * modes)
        g = self.lab.gaussian

        def channel(n):
            scale, ell, noise = gaussian_params(k, shift, n)
            return g.GaussianChannel(scale=scale, shift=ell, noise=noise)

        seq = g.GaussianChannelSequence(channel(None), channel)
        return {"k": k, "shift": shift, "seq": seq, "ns": range(1, n_max + 1)}

    def run(self, inputs: dict):
        g = self.lab.gaussian
        modes, _, points = self.size["gaussian"]
        report = g.param_convergence_check(
            inputs["seq"], inputs["ns"], 1e-6, grid=g.z_grid(modes, max_points=points)
        )
        report.write_csv(self.path("gaussian.csv"))
        report.write_json(self.path("gaussian.json"))

    def check(self, inputs: dict, _) -> int:
        modes, _, points = self.size["gaussian"]
        k, shift = inputs["k"], inputs["shift"]
        return oracles.check_gaussian_report(
            self.path("gaussian"), inputs["ns"], lambda n: gaussian_params(k, shift, n),
            gaussian_params(k, shift, None), modes, points,
        )


WORKLOADS = {w.name: w for w in (SequenceSweep, ConvertBatch, GaussianSweep)}


def growth_probes(lab, workdir: str, size: dict) -> dict:
    """Cost growth with dimension of a compress report and of ``minimal_stinespring``.

    Returns the two timings of each pair and the fitted exponent
    ``log(t_b / t_a) / log(d_b / d_a)``.
    """
    out = {}
    times = []
    dims = size["growth_compress"]
    for d in dims:
        t0 = perf_counter()
        run_cli(lab.cli, ["sequence", "compress", "--dim", str(d), "--seed", "1",
                          "--out", os.path.join(workdir, "growth")])
        times.append(perf_counter() - t0)
    out["sequences.compress_growth_exponent"] = _exponent(dims, times)
    out["compress_report_s"] = dict(zip(map(str, dims), times))

    times = []
    dims = size["growth_stinespring"]
    rng = np.random.default_rng(1)
    for d in dims:
        ch = lab.ensembles.random_kraus_channel(d, d, 4, rng)
        t0 = perf_counter()
        lab.minimal_stinespring(ch)
        times.append(perf_counter() - t0)
    out["dilation.minimal_stinespring_growth_exponent"] = _exponent(dims, times)
    out["minimal_stinespring_s"] = dict(zip(map(str, dims), times))
    return out


def _exponent(dims, times) -> float:
    return float(np.log(times[1] / times[0]) / np.log(dims[1] / dims[0]))
