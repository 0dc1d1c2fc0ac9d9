"""Command-line front end.

Subcommands: ``convert`` between channel representations, ``sequence`` to
sweep convergence defects over built-in families, ``gaussian`` for the
parameter-level calculus, and ``report`` to re-emit saved reports.  Each
sequence kind and each Gaussian action has its own parser, which takes only
the options that command reads.

Exit codes: 0 on success, 2 when a value fails validation (including
command-line usage errors: an option the command does not take, a missing
required option, and a document of a known kind the command cannot use) or
a path cannot be read or written, 3 when an input file cannot be parsed (it
is not UTF-8, not JSON, or not a known document).
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
#: Default ``--tol`` of ``gaussian converge``: the co-vanishing threshold ``eps``.
GAUSSIAN_TOL = 1e-6


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
    _emit(serialize.document(target, metadata), args.out, f" (verified={metadata['verified']})")
    return 0


def _emit(doc, out, note: str = "") -> None:
    """Write a JSON document to the file ``out`` and say so (with ``note``), or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            dump_json(doc, fh)
        print(f"wrote {out}{note}")
    else:
        dump_json(doc, sys.stdout)


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


def cmd_compress(args) -> int:
    base = to_kraus(serialize.load(args.infile)) if args.infile else identity_channel(args.dim)
    ranks = _parse_int_list(args.ranks) if args.ranks else list(range(1, base.d_out + 1))
    sigma = DensityOperator(np.eye(base.d_out) / base.d_out)
    seq = sequences.compression_sequence(base, sigma, ranks)
    family = "basis+haar states, matrix-unit obs, basis+haar vectors"
    _write_report(_kraus_report(seq, range(1, len(ranks) + 1), args.seed, family), args.out)
    return 0


def cmd_swap(args) -> int:
    _write_report(sequences.swap_report(args.dim, args.probe), args.out)
    return 0


def cmd_partial_trace_form(args) -> int:
    d_in, d_out, d_env = args.dim, args.dim_out, args.dim_env
    named = (("input dimension", d_in), ("output dimension d_out", d_out), ("environment dimension d_env", d_env))
    for name, dim in named:
        if dim < 1:
            raise ValidationError(f"{name} must be positive, got {dim}")
    total = d_out * d_env
    if d_in >= total:
        raise ValidationError(
            f"embedding needs d_in < d_out*d_env, got {d_in} >= {total}"
        )
    v0 = StinespringIsometry(np.eye(total, d_in), d_out, d_env)
    form = sequences.rotation_partial_trace_form(v0, (total - 1, 0), lambda n: 1.0 / n)
    ns = _parse_int_list(args.ns) if args.ns else [1, 10, 100, 1000]
    family = f"rotation angles 1/n in plane ({total - 1}, 0)"
    _write_report(_kraus_report(form, ns, args.seed, family), args.out)
    return 0


def _kraus_report(seq, ns, seed: int, family: str) -> Report:
    """The report of a Kraus sequence on the default probes of ``seed``."""
    probes = ensembles.default_probes(seq.limit.d_in, seq.limit.d_out, np.random.default_rng(seed))
    return sequences.convergence_report(seq, ns, probes, test_family=f"{family}, seed={seed}")


def cmd_distance(args) -> int:
    print(repr(gaussian.attenuator_output_distance(args.k, args.kprime, complex(args.eta))))
    return 0


def cmd_validate(args) -> int:
    obj = serialize.load(args.infile)
    if isinstance(obj, gaussian.GaussianState):
        check = gaussian.validate_state(obj)
    elif isinstance(obj, gaussian.GaussianChannel):
        check = gaussian.validate_channel(obj)
    else:
        raise ValidationError(f"cannot validate objects of type {type(obj).__name__}")
    print(f"valid={check.ok} min_eig_plus={check.min_eig!r} min_eig_minus={check.min_eig!r}")
    return 0 if check.ok else 2


def cmd_apply(args) -> int:
    channel = serialize.load(args.channel) if args.channel else gaussian.attenuator(args.k)
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
    _emit(doc, args.out)
    return 0


def cmd_converge(args) -> int:
    # Transmissivities k + 1/n are only valid parameters once they drop to 1,
    # so the sweep takes the indices from the first usable one on (k + 1/n
    # falls with n).  With --ns below 1 there are no indices at all, which
    # the report rejects.
    k = args.k
    if not 0.0 < k < 1.0:
        raise ValidationError(f"limit transmissivity must lie in (0, 1), got {k}")
    if args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {args.grid}")
    ns = [n for n in range(1, args.ns + 1) if k + 1.0 / n <= 1.0]
    if not ns and args.ns >= 1:
        raise ValidationError(
            f"no valid sweep indices: k + 1/n stays above 1 up to n = {args.ns}"
        )
    seq = gaussian.attenuator_sequence(lambda n: k + 1.0 / n, k)
    points = gaussian.z_grid(1, max_points=args.grid * args.grid)
    _write_report(gaussian.param_convergence_check(seq, ns, args.tol, grid=points), args.out)
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


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parser holding one option, for the ``parents=`` of every command that reads it."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*flags, **kwargs)
    return parser


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
    p.set_defaults(fn=cmd_convert, parser=p)

    out = _parent("--out", required=True, help="output path prefix for .csv and .json")
    seed = _parent("--seed", type=int, default=7, help="seed for the random test family")
    k = _parent("--k", type=float, default=0.5, help="attenuator transmissivity")

    kinds = sub.add_parser("sequence", help="sweep convergence defects over a built-in family")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("compress", parents=[out, seed], help="compressions to growing ranks")
    p.add_argument("--in", dest="infile", help="base channel JSON (default: the identity)")
    p.add_argument("--dim", type=int, default=8, help="dimension of the identity base channel")
    p.add_argument("--ranks", help="compression ranks, e.g. 1:8 or 1,2,4,8")
    p.set_defaults(fn=cmd_compress, parser=p)
    p = kinds.add_parser("swap", parents=[out], help="the swap counterexample")
    p.add_argument("--dim", type=int, default=16, help="even dimension")
    p.add_argument("--probe", type=int, default=1, help="tracked frame index")
    p.set_defaults(fn=cmd_swap, parser=p)
    p = kinds.add_parser("partial-trace-form", parents=[out, seed], help="rotated partial-trace forms")
    p.add_argument("--dim", type=int, default=4, help="input dimension")
    p.add_argument("--dim-out", type=int, default=2, help="output dimension")
    p.add_argument("--dim-env", type=int, default=3, help="environment dimension")
    p.add_argument("--ns", help="indices to sweep, e.g. 1:100 or 1,10,100")
    p.set_defaults(fn=cmd_partial_trace_form, parser=p)

    actions = sub.add_parser("gaussian", help="parameter-level Gaussian calculus")
    actions = actions.add_subparsers(dest="action", required=True)
    p = actions.add_parser("apply", parents=[k], help="apply a channel to a state")
    p.add_argument("--in", dest="infile", help="gaussian-state JSON (default: the vacuum)")
    p.add_argument("--channel", help="gaussian-channel JSON (default: the attenuator --k)")
    p.add_argument("--out", help="output JSON path (default: print to stdout)")
    p.set_defaults(fn=cmd_apply, parser=p)
    p = actions.add_parser("validate", help="check a state or channel for physical validity")
    p.add_argument("--in", dest="infile", required=True, help="gaussian-state or -channel JSON")
    p.set_defaults(fn=cmd_validate, parser=p)
    p = actions.add_parser("distance", parents=[k], help="output distance of two attenuators")
    p.add_argument("--kprime", type=float, default=0.5, help="second transmissivity")
    p.add_argument("--eta", default="1", help="coherent amplitude, complex literal; write -1+2j as --eta=-1+2j")
    p.set_defaults(fn=cmd_distance, parser=p)
    p = actions.add_parser("converge", parents=[out, k], help="sweep the attenuators k + 1/n")
    p.add_argument("--ns", type=int, default=100, help="sweep every valid index up to this one")
    p.add_argument("--grid", type=int, default=5, help="probe the first GRID^2 points of the 5x5 grid {-2..2}^2")
    p.add_argument("--tol", type=float, default=GAUSSIAN_TOL, help="co-vanishing threshold")
    p.set_defaults(fn=cmd_converge, parser=p)

    p = sub.add_parser("report", help="summarize or re-emit a saved report")
    p.add_argument("--in", dest="infile", required=True, help="report JSON")
    p.add_argument("--out", help="CSV output path (default: print a summary)")
    p.set_defaults(fn=cmd_report, parser=p)

    return parser


def main(argv=None) -> int:
    # Subparsers pass the options they do not take up to the top-level parser;
    # the command's own parser reports them, so its usage line names the command.
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
