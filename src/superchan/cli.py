"""Command-line interface.

Exit codes: 0 when the requested check passes (or the command succeeds),
2 when a validity check fails at the configured tolerance, 1 for usage,
parse, or structural errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import DimensionMismatch, DocumentError, SuperchanError, UnknownLabel
from .breaking import (
    depolarizing_channel,
    eb_channel_report,
    example_type1_not_type2,
    random_eb_superchannel,
    superchannel_breaking_report,
)
from .channels import (
    compose_channels,
    convert_channel,
    random_channel,
    validate_channel,
)
from .documents import document_bytes, document_from_object, load_document, save_document
from .operators import LabeledOperator
from .superchannels import (
    SuperchannelChoi,
    SuperchannelDims,
    apply_to_channel,
    choi_from_gour,
    gour_from_choi,
    memory_cost,
    random_superchannel,
    realize,
    validate_superchannel,
)

USAGE_ERRORS = (DocumentError, DimensionMismatch, UnknownLabel, FileNotFoundError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _tolerance(text: str) -> float:
    """A finite number >= 0; argparse reports anything else as a usage error
    naming the option."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


_OPTIONS = {
    "--tol": dict(type=_tolerance, default=1e-9,
                  help="validity tolerance (default 1e-9)"),
    "--rank-rtol": dict(type=_tolerance, default=1e-9,
                        help="relative rank cutoff (default 1e-9)"),
    "--seed": dict(type=int, default=0, help="generator seed"),
    "--out": dict(default=None, help="output path ('-' or omitted: stdout)"),
    "--format": dict(choices=("text", "machine-readable"), default="text",
                     dest="report_format"),
}


def _add_options(p: argparse.ArgumentParser, *flags: str):
    """Give a subcommand the shared options it reads, and only those."""
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superchan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("validate", help="CP/TP (channel) or CP/TP/NS "
                                        "(superchannel) report")
    p.add_argument("file")
    _add_options(p, "--tol", "--format")

    p = sub.add_parser("convert", help="convert a channel representation")
    p.add_argument("file")
    p.add_argument("--to", required=True, dest="target",
                   choices=("choi", "kraus", "stinespring", "liouville"))
    _add_options(p, "--tol", "--rank-rtol", "--out")

    p = sub.add_parser("apply", help="apply a superchannel to a channel")
    p.add_argument("theta")
    p.add_argument("channel")
    _add_options(p, "--tol", "--out")

    p = sub.add_parser("compose", help="compose two channels (first, then second)")
    p.add_argument("first")
    p.add_argument("second")
    _add_options(p, "--out")

    p = sub.add_parser("gour", help="permute between the Choi and the "
                                    "basis-map operator orderings")
    p.add_argument("file")
    p.add_argument("--inverse", action="store_true")
    _add_options(p, "--out")

    p = sub.add_parser("realize", help="sequential realization with minimal memory")
    p.add_argument("theta")
    p.add_argument("--out", metavar="PREFIX",
                   help="prefix of PREFIX.V.json and PREFIX.W.json")
    _add_options(p, "--tol", "--format")

    p = sub.add_parser("memory-cost", help="minimal memory dimension")
    p.add_argument("theta")
    _add_options(p, "--tol", "--format")

    p = sub.add_parser("breaking", help="EB verdict (channel) or "
                                        "Type-I/Type-II report (superchannel)")
    p.add_argument("file")
    _add_options(p, "--tol", "--format")

    p = sub.add_parser("gen", help="generate documented test objects")
    gen_sub = p.add_subparsers(dest="generator", required=True,
                               parser_class=_Parser)

    g = gen_sub.add_parser("channel")
    g.add_argument("--d-in", type=int, default=2)
    g.add_argument("--d-out", type=int, default=2)
    g.add_argument("--kraus-rank", type=int, default=2)
    _add_options(g, "--seed", "--out")

    g = gen_sub.add_parser("superchannel")
    g.add_argument("--d-a1", type=int, default=2)
    g.add_argument("--d-a2", type=int, default=2)
    g.add_argument("--d-b1", type=int, default=2)
    g.add_argument("--d-b2", type=int, default=2)
    g.add_argument("--memory-dim", type=int, default=2)
    _add_options(g, "--seed", "--out")

    g = gen_sub.add_parser("eb-superchannel")
    g.add_argument("--d-a1", type=int, default=2)
    g.add_argument("--d-a2", type=int, default=2)
    g.add_argument("--d-b1", type=int, default=2)
    g.add_argument("--d-b2", type=int, default=2)
    g.add_argument("--terms", type=int, default=2)
    _add_options(g, "--seed", "--out")

    g = gen_sub.add_parser("type1-example")
    g.add_argument("--d", type=int, default=2)
    _add_options(g, "--out")

    g = gen_sub.add_parser("depolarizing")
    g.add_argument("--p", type=float, required=True)
    _add_options(g, "--out")

    return parser


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _emit_doc(obj, args, kind=None):
    if args.out is None or args.out == "-":
        sys.stdout.buffer.write(document_bytes(document_from_object(obj, kind)))
    else:
        save_document(obj, args.out, kind)


def _emit_report(lines: list, payload: dict, args) -> None:
    if args.report_format == "machine-readable":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_superchannel(path) -> SuperchannelChoi:
    obj = load_document(path)
    if not isinstance(obj, SuperchannelChoi):
        raise DimensionMismatch(
            f"expected a superchannel-choi document, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------

def _cmd_validate(args) -> int:
    obj = load_document(args.file)
    if isinstance(obj, SuperchannelChoi):
        kind, report = "superchannel", validate_superchannel(obj, tol=args.tol)
    else:
        choi = convert_channel(obj, "choi")
        kind, report = "channel", validate_channel(choi, tol=args.tol)
    mark = lambda ok: "pass" if ok else "FAIL"
    lines = [
        f"hermitian: {mark(report.hermitian)}",
        f"cp: {mark(report.cp)} (min eigenvalue {report.min_eigenvalue:.3e})",
        f"tp: {mark(report.tp)} (deviation {report.tp_deviation:.3e})",
    ]
    if kind == "superchannel":
        lines.append(f"ns: {mark(report.ns)} (deviation {report.ns_deviation:.3e})")
    lines.append(f"result: {f'valid {kind}' if report.valid else 'INVALID'}")
    payload = {"kind": kind, **dataclasses.asdict(report), "valid": report.valid}
    _emit_report(lines, payload, args)
    return 0 if report.valid else 2


def _cmd_convert(args) -> int:
    result = convert_channel(load_document(args.file), args.target,
                             tol=args.tol, rank_rtol=args.rank_rtol)
    _emit_doc(result, args)
    return 0


def _cmd_apply(args) -> int:
    theta = _load_superchannel(args.theta)
    channel = convert_channel(load_document(args.channel), "choi")
    out = apply_to_channel(theta, channel, tol=args.tol)
    _emit_doc(out, args)
    return 0


def _cmd_compose(args) -> int:
    first = convert_channel(load_document(args.first), "choi")
    second = convert_channel(load_document(args.second), "choi")
    _emit_doc(compose_channels(second, first), args)
    return 0


def _cmd_gour(args) -> int:
    obj = load_document(args.file)
    if args.inverse:
        if not isinstance(obj, LabeledOperator):
            raise DimensionMismatch("--inverse expects a gour document")
        _emit_doc(choi_from_gour(obj), args)
    else:
        if not isinstance(obj, SuperchannelChoi):
            raise DimensionMismatch("expected a superchannel-choi document")
        _emit_doc(gour_from_choi(obj), args, kind="gour")
    return 0


def _cmd_realize(args) -> int:
    if args.out in (None, "-"):  # two documents cannot share stdout
        raise DimensionMismatch("realize needs --out PREFIX for the V/W documents")
    theta = _load_superchannel(args.theta)
    result = realize(theta, validity_tol=args.tol)
    v_path = f"{args.out}.V.json"
    w_path = f"{args.out}.W.json"
    save_document(result.v, v_path)
    save_document(result.w, w_path)
    lines = [
        f"memory dimension: {result.e1_dim}",
        f"environment dimension: {result.e2_dim}",
        f"reconstruction residual: {result.reconstruction_residual:.3e}",
        f"wrote {v_path} and {w_path}",
    ]
    payload = {
        "memory_dim": result.e1_dim,
        "environment_dim": result.e2_dim,
        "residual": result.reconstruction_residual,
        "v_deviation": result.v_deviation,
        "w_deviation": result.w_deviation,
        "v_path": v_path,
        "w_path": w_path,
    }
    _emit_report(lines, payload, args)
    return 0


def _cmd_memory_cost(args) -> int:
    theta = _load_superchannel(args.theta)
    cost = memory_cost(theta, tol=args.tol)
    _emit_report([str(cost)], {"memory_cost": cost}, args)
    return 0


def _cmd_breaking(args) -> int:
    obj = load_document(args.file)
    if isinstance(obj, SuperchannelChoi):
        report = superchannel_breaking_report(obj, tol=args.tol)
        fmt = lambda v: f"{'PPT' if v.is_ppt else 'NPT'} (min eigenvalue {v.min_eigenvalue:.3e})"
        lines = [
            f"type-I cut A1B2|B1A2: {fmt(report.type_I)} [{report.type_I_exactness}]",
            f"type-II cut A1A2|B1B2: {fmt(report.type_II)} [{report.type_II_exactness}]",
            f"common cause breaking: {'yes' if report.common_cause_breaking else 'no'}",
        ]
        payload = {
            "kind": "superchannel",
            "type_I_ppt": report.type_I.is_ppt,
            "type_I_min_eigenvalue": report.type_I.min_eigenvalue,
            "type_I_exactness": report.type_I_exactness,
            "type_II_ppt": report.type_II.is_ppt,
            "type_II_min_eigenvalue": report.type_II.min_eigenvalue,
            "type_II_exactness": report.type_II_exactness,
            "common_cause_breaking": report.common_cause_breaking,
        }
        _emit_report(lines, payload, args)
        return 0
    choi = convert_channel(obj, "choi")
    report = eb_channel_report(choi, tol=args.tol)
    verdict = {True: "yes", False: "no", None: "undetermined"}[report.is_eb]
    lines = [
        f"entanglement breaking: {verdict} [{report.exactness}]",
        f"min eigenvalue of partial transpose: {report.ppt.min_eigenvalue:.3e}",
    ]
    payload = {
        "kind": "channel",
        "entanglement_breaking": report.is_eb,
        "ppt": report.ppt.is_ppt,
        "min_eigenvalue": report.ppt.min_eigenvalue,
        "exactness": report.exactness,
    }
    _emit_report(lines, payload, args)
    return 0


def _cmd_gen(args) -> int:
    if args.generator == "channel":
        obj = random_channel(args.d_in, args.d_out, args.kraus_rank,
                             seed=args.seed)
    elif args.generator == "superchannel":
        dims = SuperchannelDims(args.d_a1, args.d_a2, args.d_b1, args.d_b2)
        obj = random_superchannel(dims, memory_dim=args.memory_dim,
                                  seed=args.seed)
    elif args.generator == "eb-superchannel":
        dims = SuperchannelDims(args.d_a1, args.d_a2, args.d_b1, args.d_b2)
        obj = random_eb_superchannel(dims, n_terms=args.terms, seed=args.seed)
    elif args.generator == "type1-example":
        obj = example_type1_not_type2(args.d)
    elif args.generator == "depolarizing":
        obj = depolarizing_channel(args.p)
    else:  # pragma: no cover - argparse enforces choices
        raise DimensionMismatch(f"unknown generator {args.generator!r}")
    _emit_doc(obj, args)
    return 0


HANDLERS = {
    "validate": _cmd_validate,
    "convert": _cmd_convert,
    "apply": _cmd_apply,
    "compose": _cmd_compose,
    "gour": _cmd_gour,
    "realize": _cmd_realize,
    "memory-cost": _cmd_memory_cost,
    "breaking": _cmd_breaking,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return HANDLERS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"superchan: error: {exc}", file=sys.stderr)
        return 1
    except SuperchanError as exc:
        print(f"superchan: check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
