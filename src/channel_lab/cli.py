"""Command-line front end.

Subcommands: ``convert`` between channel representations, ``sequence`` to
sweep convergence defects over built-in families, ``gaussian`` for the
parameter-level calculus, and ``report`` to re-emit saved reports.

Exit codes: 0 on success, 2 when a value fails validation (including
command-line usage errors and a document of a known kind the command cannot
use) or a path cannot be read or written, 3 when an input file cannot be
parsed (it is not UTF-8, not JSON, or not a known document).
All outputs are deterministic for a fixed invocation and seed.  Every
sweep runs in one thread, as blocked array code.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import ensembles, gaussian, sequences, serialize
from .core import (
    DensityOperator,
    StinespringIsometry,
    ValidationError,
    identity_channel,
    max_action_deviation,
)
from .dilation import (
    isometry_from_kraus,
    minimal_stinespring,
    to_kraus,
    unitary_from_isometry,
)
from .report import Report, dump_json

#: ``convert`` marks its output verified when the largest action deviation is within this.
ACTION_TOL = 1e-8
#: Default ``--tol`` of the Gaussian sweeps: the co-vanishing threshold ``eps``.
GAUSSIAN_TOL = 1e-6
ETA_HELP = "coherent amplitude, complex literal (distance); a negative real part needs --eta=-1+2j"
NS_HELP = "indices to sweep, e.g. 1:100 or 1,10,100; gaussian sweeps every valid index up to the largest"
GRID_HELP = "probe the first GRID^2 points, in lexicographic order, of the 5x5 grid {-2..2}^2"


#: The ``convert --to`` targets, each built from the source's Kraus family.
TARGETS = {
    "kraus": lambda kraus: kraus,
    "stinespring": isometry_from_kraus,
    "minimal-stinespring": minimal_stinespring,
    "unitary-dilation": lambda kraus: unitary_from_isometry(isometry_from_kraus(kraus)),
}


def cmd_convert(args) -> int:
    source = serialize.load(args.infile)
    kraus = to_kraus(source)
    target = TARGETS[args.to](kraus)
    deviation = max_action_deviation(kraus, to_kraus(target))
    metadata = {
        "source_kind": serialize.kind_of(source),
        "max_action_deviation": deviation,
        "verified": bool(deviation <= ACTION_TOL),
    }
    if args.out:
        serialize.dump(target, args.out, metadata=metadata)
        print(f"wrote {args.out} (verified={metadata['verified']})")
    else:
        dump_json(serialize.document(target, metadata), sys.stdout)
    return 0


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _write_report(report, prefix: str) -> None:
    report.write_csv(prefix + ".csv")
    report.write_json(prefix + ".json")
    print(f"wrote {prefix}.csv and {prefix}.json")


def _gaussian_sweep(k: float, n_max: int, eps: float, grid: int) -> Report:
    # Transmissivities k + 1/n are only valid parameters once they drop to 1,
    # so the sweep takes the indices from the first usable one on (k + 1/n
    # falls with n).  With n_max < 1 there are no indices at all, which the
    # report rejects.
    if not 0.0 < k < 1.0:
        raise ValidationError(f"limit transmissivity must lie in (0, 1), got {k}")
    if grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {grid}")
    ns = [n for n in range(1, n_max + 1) if k + 1.0 / n <= 1.0]
    if not ns and n_max >= 1:
        raise ValidationError(
            f"no valid sweep indices: k + 1/n stays above 1 up to n = {n_max}"
        )
    seq = gaussian.attenuator_sequence(lambda n: k + 1.0 / n, k)
    points = gaussian.z_grid(1, max_points=grid * grid)
    return gaussian.param_convergence_check(seq, ns, eps, grid=points)


def cmd_sequence(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.dim is None:
        args.dim = {"compress": 8, "swap": 16, "partial-trace-form": 4}.get(args.kind, 8)
    if args.kind == "compress":
        if args.infile:
            base = to_kraus(serialize.load(args.infile))
        else:
            base = identity_channel(args.dim)
        ranks = _parse_int_list(args.ranks) if args.ranks else list(range(1, base.d_out + 1))
        sigma = DensityOperator(np.eye(base.d_out) / base.d_out)
        seq = sequences.compression_sequence(base, sigma, ranks)
        family = f"basis+haar states, matrix-unit obs, basis+haar vectors, seed={args.seed}"
        report = _kraus_report(seq, range(1, len(ranks) + 1), rng, family)
    elif args.kind == "swap":
        report = _swap_report(args.dim, args.probe)
    elif args.kind == "partial-trace-form":
        report = _rotation_report(args, rng)
    else:
        ns = _parse_int_list(args.ns) if args.ns else list(range(1, 101))
        report = _gaussian_sweep(args.k, max(ns, default=0), args.tol, args.grid)
    _write_report(report, args.out)
    return 0


def _swap_report(d: int, probe: int) -> Report:
    """Vector-level defects of the swap family, with the embedded-channel Choi column."""
    if d % 2:
        raise ValidationError(f"the swap report needs an even dimension to embed, got {d}")
    if not 1 <= probe <= d - 1:
        raise ValidationError(f"probe index must lie in 1..{d - 1}, got {probe}")
    terms, psi = sequences.swap_counterexample(d)
    limit = terms[0].initial_projector
    tau = np.zeros(d, dtype=np.complex128)
    tau[probe - 1] = 1.0

    v0 = StinespringIsometry(np.eye(d, d - 1), 2, d // 2)
    form = sequences.PartialTraceForm(v0, lambda n: terms[n - 1])
    channel_seq = sequences.channels_from_partial_isometries(form)

    return Report(
        "convergence-report",
        range(1, d),
        strong=[np.linalg.norm((w.w - limit) @ tau) for w in terms],
        strongstar=[np.linalg.norm((w.w.conj().T - limit) @ psi) for w in terms],
        choi=sequences.choi_defects(channel_seq, range(1, d)),
        strong_witness=[f"tau[{probe}]"] * len(terms),
        strongstar_witness=["psi"] * len(terms),
        test_family=f"vector-level probes tau[{probe}] and psi; choi from the (2, {d // 2}) embedding",
    )


def _rotation_report(args, rng) -> Report:
    d_in, d_out, d_env = args.dim, args.dim_out, args.dim_env
    total = d_out * d_env
    if d_in >= total:
        raise ValidationError(
            f"embedding needs d_in < d_out*d_env, got {d_in} >= {total}"
        )
    v0 = StinespringIsometry(np.eye(total, d_in), d_out, d_env)
    form = sequences.rotation_partial_trace_form(v0, (total - 1, 0), lambda n: 1.0 / n)
    seq = sequences.channels_from_partial_isometries(form)
    ns = _parse_int_list(args.ns) if args.ns else [1, 10, 100, 1000]
    return _kraus_report(seq, ns, rng, f"rotation angles 1/n in plane ({total - 1}, 0), seed={args.seed}")


def _kraus_report(seq, ns, rng, test_family: str) -> Report:
    """The report of a Kraus sequence on the default probes, test states drawn before test vectors."""
    d_in, d_out = seq.limit.d_in, seq.limit.d_out
    return sequences.convergence_report(
        seq,
        ns,
        ensembles.default_test_states(d_in, rng),
        ensembles.matrix_unit_observables(d_out),
        ensembles.default_test_vectors(d_in, rng),
        test_family=test_family,
    )


def cmd_gaussian(args) -> int:
    if args.action == "distance":
        print(repr(gaussian.attenuator_output_distance(args.k, args.kprime, complex(args.eta))))
        return 0
    if args.action == "validate":
        obj = serialize.load(args.infile)
        if isinstance(obj, gaussian.GaussianState):
            check = gaussian.validate_state(obj)
        elif isinstance(obj, gaussian.GaussianChannel):
            check = gaussian.validate_channel(obj)
        else:
            raise ValidationError(f"cannot validate objects of type {type(obj).__name__}")
        print(
            f"valid={check.ok} min_eig_plus={check.min_eig_plus!r} "
            f"min_eig_minus={check.min_eig_minus!r}"
        )
        return 0 if check.ok else 2
    if args.action == "apply":
        channel = (
            serialize.load(args.channel) if args.channel else gaussian.attenuator(args.k)
        )
        if not isinstance(channel, gaussian.GaussianChannel):
            raise ValidationError("the --channel file must hold a gaussian-channel")
        state = serialize.load(args.infile) if args.infile else gaussian.vacuum(channel.modes_in)
        if not isinstance(state, gaussian.GaussianState):
            raise ValidationError("the --in file must hold a gaussian-state")
        out = gaussian.apply_gaussian(channel, state)
        doc = {
            "input": serialize.document(state),
            "channel": serialize.document(channel),
            "output": serialize.document(out),
        }
        if args.out:
            with open(args.out, "w") as fh:
                dump_json(doc, fh)
            print(f"wrote {args.out}")
        else:
            dump_json(doc, sys.stdout)
        return 0
    report = _gaussian_sweep(args.k, args.ns, args.tol, args.grid)
    _write_report(report, args.out)
    return 0


def cmd_report(args) -> int:
    report = serialize.load(args.infile)
    if not isinstance(report, Report):
        raise ValidationError("the --in file must hold a report")
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")
    else:
        for line in _summary_lines(report):
            print(line)
    return 0


def _summary_lines(report) -> list[str]:
    lines = [f"indices: {report.indices[0]}..{report.indices[-1]} ({len(report.indices)} rows)"]
    for name, col in report.columns.items():
        if isinstance(col[0], float):
            lines.append(f"{name}: first={col[0]!r} last={col[-1]!r} max={max(col)!r}")
    if report.test_family:
        lines.append(f"test family: {report.test_family}")
    return lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="channel-lab",
        description="Quantum channel representations and convergence diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between channel representations")
    p.add_argument("--in", dest="infile", required=True, help="input representation JSON")
    p.add_argument("--to", required=True, choices=TARGETS)
    p.add_argument("--out", help="output JSON path (default: print to stdout)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("sequence", help="sweep convergence defects over a built-in family")
    p.add_argument("kind", choices=["compress", "swap", "partial-trace-form", "gaussian"])
    p.add_argument("--in", dest="infile", help="base channel JSON (compress only)")
    p.add_argument("--out", required=True, help="output path prefix for .csv and .json")
    p.add_argument(
        "--dim",
        type=int,
        help="base dimension (defaults: compress 8, swap 16, partial-trace-form 4)",
    )
    p.add_argument("--dim-out", type=int, default=2, help="output dim (partial-trace-form)")
    p.add_argument("--dim-env", type=int, default=3, help="environment dim (partial-trace-form)")
    p.add_argument("--ranks", help="compression ranks, e.g. 1:8 or 1,2,4,8")
    p.add_argument("--ns", help=NS_HELP)
    p.add_argument("--probe", type=int, default=1, help="tracked frame index (swap)")
    p.add_argument("--k", type=float, default=0.5, help="limit transmissivity (gaussian)")
    p.add_argument("--grid", type=int, default=5, help=GRID_HELP)
    p.add_argument("--seed", type=int, default=7, help="seed for the random test family")
    p.add_argument("--tol", type=float, default=GAUSSIAN_TOL, help="co-vanishing threshold (gaussian)")
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("gaussian", help="parameter-level Gaussian calculus")
    p.add_argument("action", choices=["apply", "validate", "distance", "converge"])
    p.add_argument("--in", dest="infile", help="gaussian-state or gaussian-channel JSON")
    p.add_argument("--channel", help="gaussian-channel JSON (apply)")
    p.add_argument("--out", help="output path (apply) or prefix (converge)")
    p.add_argument("--k", type=float, default=0.5, help="attenuator transmissivity")
    p.add_argument("--kprime", type=float, default=0.5, help="second transmissivity (distance)")
    p.add_argument("--eta", default="1", help=ETA_HELP)
    p.add_argument("--ns", type=int, default=100, help="largest sweep index (converge)")
    p.add_argument("--grid", type=int, default=5, help=GRID_HELP)
    p.add_argument("--tol", type=float, default=GAUSSIAN_TOL, help="co-vanishing threshold (converge)")
    p.set_defaults(fn=cmd_gaussian)

    p = sub.add_parser("report", help="summarize or re-emit a saved report")
    p.add_argument("--in", dest="infile", required=True, help="report JSON")
    p.add_argument("--out", help="CSV output path (default: print a summary)")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except serialize.SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ValidationError is a ValueError, SchemaError is caught above; an OSError is
        # a path that cannot be read or written.
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
