"""Batch command-line interface.

Subcommands: ``compute`` (adjoint / seminorm / radius / absolute-value
power for one operator under one weight), ``check`` (evaluate a
registered inequality on matrices from JSON files), ``fuzz`` (run
campaigns and emit campaign reports), and ``audit`` (recompute the
bundled worked-example catalog and tabulate reported vs computed).

Exit codes: 0 success (including hypothesis-failure advisories),
1 bound violation, 2 input parse error, 3 domain error,
4 unknown inequality id.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import format_audit_table
from .fuzz import A_KINDS, T_KINDS, GenSpec, campaign_to_obj, run_campaign
from .inequalities import (
    BoundParams,
    UnknownId,
    evaluate_bound,
    registry_entry,
    registry_ids,
)
from .linalg import ConvergenceFailure, DomainError
from .matio import MatrixFormatError, load_matrix, matrix_to_obj, report_to_obj
from .semihilbert import (
    a_abs_power,
    a_adjoint,
    a_numerical_radius,
    make_context,
    op_seminorm,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_UNKNOWN_ID = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aradius",
        description="Weighted numerical-radius computations and bound checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="one weighted computation on (A, T)")
    c.add_argument("kind", choices=("adjoint", "seminorm", "radius", "abs_power"))
    c.add_argument("a_file", help="weight matrix JSON file")
    c.add_argument("t_file", help="operator matrix JSON file")
    c.add_argument("--power", type=float, default=1.0, help="exponent for abs_power")

    k = sub.add_parser("check", help="evaluate one registered inequality")
    k.add_argument("inequality_id")
    k.add_argument(
        "files",
        nargs="*",
        help="weight matrix file followed by operand files in registry order",
    )
    k.add_argument("--values", default=None, help="comma-separated scalar inputs")
    k.add_argument("--alpha-re", type=float, default=2.0)
    k.add_argument("--alpha-im", type=float, default=0.0)
    k.add_argument("--beta", type=float, default=1.0)
    k.add_argument("--r", type=float, default=1.0)
    k.add_argument("--mu", type=float, default=0.5)
    k.add_argument("--lam", type=float, default=0.5)
    k.add_argument("--p", type=float, default=2.0)

    f = sub.add_parser("fuzz", help="run randomized soundness campaigns")
    f.add_argument("ids", nargs="+", help="inequality ids, or 'all'")
    f.add_argument("--dim", type=int, default=3)
    f.add_argument("--trials", type=int, default=100)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--a-kind", choices=A_KINDS, default="dense_psd")
    f.add_argument("--t-kind", choices=T_KINDS, default="dense")
    f.add_argument("--scale", type=float, default=1.0)
    f.add_argument("--rank", type=int, default=None)
    f.add_argument("--randomize-params", action="store_true")
    f.add_argument("--out", default=None, help="write report array to this file")

    sub.add_parser("audit", help="recompute the worked-example catalog")
    return parser


def _cmd_compute(args) -> int:
    _, a = load_matrix(args.a_file)
    _, t = load_matrix(args.t_file)
    ctx = make_context(a)
    out = {"kind": args.kind, "rank": ctx.rank}
    if args.kind == "adjoint":
        out["matrix"] = matrix_to_obj("adjoint", a_adjoint(ctx, t))
    elif args.kind == "seminorm":
        out["value"] = op_seminorm(ctx, t)
    elif args.kind == "radius":
        out["value"] = a_numerical_radius(ctx, t)
    else:
        out["matrix"] = matrix_to_obj(
            f"abs_power_{args.power:g}", a_abs_power(ctx, t, args.power)
        )
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _parse_values(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise MatrixFormatError(f"bad --values list: {exc}") from None


def _cmd_check(args) -> int:
    entry = registry_entry(args.inequality_id)
    ctx = None
    if entry.kind == "scalar":
        if args.values is None:
            raise MatrixFormatError("scalar inequalities need --values")
        operands = {"values": _parse_values(args.values)}
    else:
        file_operands = [name for name in entry.operands if name != "r"]
        if len(args.files) != 1 + len(file_operands):
            raise MatrixFormatError(
                f"{args.inequality_id!r} needs the weight file plus "
                f"{len(file_operands)} operand file(s): {', '.join(file_operands)}"
            )
        _, a = load_matrix(args.files[0])
        ctx = make_context(a)
        operands = {}
        for name, path in zip(file_operands, args.files[1:]):
            _, operands[name] = load_matrix(path)
    if args.inequality_id == "holder_mccarthy":
        # ``--r`` is the operand r here, which may lie below the
        # parameter floor r >= 1 that BoundParams enforces.
        operands["r"] = args.r
        params = None
    else:
        params = BoundParams(
            alpha=complex(args.alpha_re, args.alpha_im),
            beta=args.beta,
            r=args.r,
            mu=args.mu,
            lam=args.lam,
            p=args.p,
        )
    rep = evaluate_bound(ctx, args.inequality_id, operands, params)
    print(json.dumps(report_to_obj(rep), indent=2))
    return EXIT_VIOLATION if rep.violated else EXIT_OK


def _cmd_fuzz(args) -> int:
    ids = list(registry_ids()) if list(args.ids) == ["all"] else list(args.ids)
    for iid in ids:
        registry_entry(iid)
    gen = GenSpec(
        dim=args.dim,
        a_kind=args.a_kind,
        t_kind=args.t_kind,
        scale=args.scale,
        seed=args.seed,
        rank=args.rank,
    )
    reports = run_campaign(ids, gen, args.trials, randomize_params=args.randomize_params)
    payload = json.dumps([campaign_to_obj(r) for r in reports], indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    else:
        print(payload)
    return EXIT_VIOLATION if any(r.violations for r in reports) else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        print(format_audit_table())
        return EXIT_OK
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnknownId as exc:
        print(
            f"error: {exc}; valid ids: {', '.join(registry_ids())}",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN_ID
    except (DomainError, ConvergenceFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
