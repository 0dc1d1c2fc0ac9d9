"""Independent correctness checks for the benchmark's outputs.

Everything here uses numpy and the standard library only, never
channel_lab, so a defect in the library cannot hide in its own oracle.
Each check raises :class:`OracleError` with the first disagreement found.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re

import numpy as np


class OracleError(AssertionError):
    """An output disagreed with the benchmark's independent recomputation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# -- generic helpers ----------------------------------------------------

def require_finite_json(obj, where: str) -> None:
    """Fail on any non-finite number anywhere in a parsed JSON value."""
    if isinstance(obj, float):
        require(math.isfinite(obj), f"non-finite value in {where}")
    elif isinstance(obj, dict):
        for value in obj.values():
            require_finite_json(value, where)
    elif isinstance(obj, list):
        for value in obj:
            require_finite_json(value, where)


def read_report(prefix: str) -> dict:
    """Load a report's JSON document; fail on non-finite values in it or its CSV."""
    with open(prefix + ".json") as fh:
        doc = json.load(fh)
    require_finite_json(doc, prefix + ".json")
    with open(prefix + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            require(math.isfinite(value), f"non-finite value {cell!r} in {prefix}.csv")
    require(len(rows) - 1 == len(doc["indices"]), f"{prefix}: CSV and JSON row counts differ")
    return doc


def complex_array(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def trace_norms(batch: np.ndarray) -> np.ndarray:
    return np.linalg.svd(batch, compute_uv=False).sum(axis=-1)


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def superop(ops: np.ndarray) -> np.ndarray:
    """Row-major superoperator S with vec(sum_k A_k X A_k*) = S vec(X); ops is (K, d_out, d_in)."""
    _, d_out, d_in = ops.shape
    return np.einsum("kab,kcd->acbd", ops, ops.conj()).reshape(d_out * d_out, d_in * d_in)


def choi_from_superop(s: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """J[(p, i), (q, j)] = channel(|i><j|)[p, q], on output (x) input."""
    return s.reshape(d_out, d_out, d_in, d_in).transpose(0, 2, 1, 3).reshape(d_out * d_in, -1)


def dual_on_matrix_units(s: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """Dual images of all |i><j| in order i * d_out + j: entry [a, b] is channel(|b><a|)[j, i]."""
    d = s.reshape(d_out, d_out, d_in, d_in).transpose(1, 0, 3, 2)
    return d.reshape(d_out * d_out, d_in, d_in)


# -- sequence-sweep -----------------------------------------------------

def haar_draws(dim: int, rng: np.random.Generator, count: int) -> list:
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out


def cli_test_family(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The CLI's test states and vectors for a seed: basis plus 4 (states) and 2 (vectors) Haar draws."""
    rng = np.random.default_rng(seed)
    eye = np.eye(dim, dtype=np.complex128)
    state_vecs = list(eye) + haar_draws(dim, rng, 4)
    states = np.array([np.outer(v, v.conj()) for v in state_vecs])
    vectors = np.array(list(eye) + haar_draws(dim, rng, 2))
    return states, vectors


def _witness_indices(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"\[(\d+)\]", text)]


def check_convergence_report(prefix: str, ns, term_superops, limit_superop,
                             d_in: int, d_out: int, seed: int, tol: float = 1e-10) -> int:
    """Recompute the strong, strong* and Choi columns and check the witnesses.

    Returns the number of report rows.
    """
    doc = read_report(prefix)
    require(doc["indices"] == list(ns), f"{prefix}: indices {doc['indices']} != {list(ns)}")
    states, vectors = cli_test_family(d_in, seed)
    vec_states = states.reshape(len(states), -1)
    dual0 = dual_on_matrix_units(limit_superop, d_out, d_in)
    choi0 = choi_from_superop(limit_superop, d_out, d_in)
    for row, s in enumerate(term_superops):
        diff = s - limit_superop
        strong = trace_norms((vec_states @ diff.T).reshape(-1, d_out, d_out))
        dual = dual_on_matrix_units(s, d_out, d_in) - dual0
        star = np.linalg.norm(np.einsum("oab,vb->ova", dual, vectors), axis=-1)
        choi = float(trace_norms(choi_from_superop(s, d_out, d_in) - choi0)) / d_in
        n = doc["indices"][row]
        for name, want in (("strong", strong.max()), ("strongstar", star.max()), ("choi", choi)):
            got = doc[name][row]
            require(abs(got - want) <= tol, f"{prefix}: {name}[n={n}] = {got!r}, oracle {want!r}")
        (k,) = _witness_indices(doc["strong_witness"][row])
        require(strong[k] >= strong.max() - tol, f"{prefix}: strong witness at n={n} is not a maximizer")
        kb, kv = _witness_indices(doc["strongstar_witness"][row])
        require(star[kb, kv] >= star.max() - tol, f"{prefix}: strong* witness at n={n} is not a maximizer")
    return len(doc["indices"])


def compress_superop(dim: int, rank: int) -> np.ndarray:
    """rho -> P rho P + Tr((I - P) rho) I/dim, with P the first ``rank`` coordinates."""
    p = np.diag((np.arange(dim) < rank).astype(np.complex128))
    sigma = np.eye(dim) / dim
    return np.kron(p, p) + np.outer(sigma.reshape(-1), (np.eye(dim) - p).reshape(-1))


def givens(dim: int, i: int, j: int, theta: float) -> np.ndarray:
    """The rotation by ``theta`` in the (e_i, e_j) coordinate plane."""
    r = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(theta), np.sin(theta)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def rotation_form_superop(d_in: int, d_out: int, d_env: int, theta: float) -> np.ndarray:
    """Channel of V = R(theta) V0, V0 the first d_in columns of I, R a Givens rotation in plane (last, 0)."""
    total = d_out * d_env
    v = givens(total, total - 1, 0, theta)[:, :d_in]
    return superop(v.reshape(d_out, d_env, d_in).transpose(1, 0, 2))


# -- convert-batch ------------------------------------------------------

def kraus_of_document(doc: dict) -> np.ndarray:
    """Kraus operators (K, d_out, d_in) of a kraus, stinespring or unitary-dilation document."""
    kind = doc["kind"]
    if kind == "kraus":
        return complex_array(doc["kraus"])
    if kind == "stinespring":
        v = complex_array(doc["V"])
        d_out, d_env = doc["d_out"], doc["d_env"]
    elif kind == "unitary-dilation":
        u = complex_array(doc["U"])
        require(opnorm(u.conj().T @ u - np.eye(len(u))) <= 1e-10, "unitary dilation is not unitary")
        tau0 = complex_array(doc["tau0"])
        v = u @ np.kron(np.eye(doc["d_in"]), tau0.reshape(-1, 1))
        d_out, d_env = doc["d_out"], doc["d_env"]
    else:
        raise OracleError(f"unexpected document kind {kind!r}")
    return v.reshape(d_out, d_env, -1).transpose(1, 0, 2)


def choi_of_kraus(ops: np.ndarray) -> np.ndarray:
    flat = ops.reshape(len(ops), -1)
    return flat.T @ flat.conj()


def check_conversion(source_ops: np.ndarray, out_path: str, target: str) -> None:
    """Reloaded output presents the source channel, is verified, and a minimal one is minimal."""
    with open(out_path) as fh:
        doc = json.load(fh)
    require_finite_json(doc, out_path)
    require(doc.get("metadata", {}).get("verified") is True, f"{out_path}: metadata.verified is not true")
    want = choi_of_kraus(source_ops)
    got = choi_of_kraus(kraus_of_document(doc))
    dev = float(np.max(np.abs(got - want)))
    require(dev <= 1e-8, f"{out_path}: Choi matrix deviates from the source by {dev:.3e}")
    if target == "minimal-stinespring":
        vals = np.linalg.eigvalsh(want)
        rank = int(np.sum(vals > 1e-8 * vals.max()))
        require(doc["d_env"] == rank, f"{out_path}: environment dim {doc['d_env']} != Choi rank {rank}")


def check_completion(u: np.ndarray, w: np.ndarray, what: str) -> None:
    """U is unitary and agrees with W on W's initial subspace: U (W*W) = W."""
    eye = np.eye(len(u))
    require(opnorm(u.conj().T @ u - eye) <= 1e-10, f"{what} is not unitary")
    dev = opnorm(u @ (w.conj().T @ w) - w)
    require(dev <= 1e-10, f"{what}: ||U W*W - W|| = {dev:.3e}")


# -- gaussian-sweep -----------------------------------------------------

def gaussian_grid(modes: int, max_points: int) -> np.ndarray:
    """{-2, ..., 2}^(2 modes) in lexicographic order, truncated."""
    pts = itertools.islice(itertools.product(np.arange(-2.0, 3.0), repeat=2 * modes), max_points)
    return np.array(list(pts))


def gaussian_test_states(modes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Vacuum, the vacuum displaced by 2 in the first coordinate, and covariance 3 I."""
    d = 2 * modes
    shifted = np.zeros(d)
    shifted[0] = 2.0
    return [(np.zeros(d), np.eye(d)), (shifted, np.eye(d)), (np.zeros(d), 3.0 * np.eye(d))]


def char_values(params, states, grid) -> np.ndarray:
    """Output characteristic functions exp(i m'.z - z.s'.z/2), shape (states, points)."""
    scale, shift, noise = params
    out = []
    for mean, cov in states:
        m = mean @ scale + shift
        s = noise + scale.T @ cov @ scale
        out.append(np.exp(1j * (grid @ m) - 0.5 * np.einsum("pi,ij,pj->p", grid, s, grid)))
    return np.array(out)


def check_gaussian_report(prefix: str, ns, params_fn, limit, modes: int, max_points: int) -> int:
    """char_dev within 1e-12 of the closed form, parameter deviations exact; returns rows."""
    doc = read_report(prefix)
    require(doc["indices"] == list(ns), f"{prefix}: indices {doc['indices']} != {list(ns)}")
    grid = gaussian_grid(modes, max_points)
    states = gaussian_test_states(modes)
    base = char_values(limit, states, grid)
    for row, n in enumerate(ns):
        params = params_fn(n)
        for name, got, ref in zip(("scale_dev", "shift_dev", "noise_dev"), params, limit):
            want = float(np.max(np.abs(got - ref)))
            require(doc[name][row] == want, f"{prefix}: {name}[n={n}] = {doc[name][row]!r}, oracle {want!r}")
        want = float(np.max(np.abs(char_values(params, states, grid) - base)))
        got = doc["char_dev"][row]
        require(abs(got - want) <= 1e-12, f"{prefix}: char_dev[n={n}] = {got!r}, oracle {want!r}")
    return len(doc["indices"])
