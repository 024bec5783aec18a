"""Command-line front end.

Subcommands: ``verify`` (identity documents against their expected verdicts),
``transform`` (print/verify Beta, derivative, and central transforms),
``corpus run`` (the whole shipped library), ``eval`` (exact expression
evaluation).  Exit codes: 0 expectations met, 1 mismatch, 2 usage error,
3 load error, 4 shape error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import beta, corpus, dsl
from .beta import GRID_PARAMS
from .errors import (DivisionByZero, DslSyntaxError, EvalTypeError,
                     FinsumError, FormatError, PoleError, ShapeError,
                     UnboundVariable)
from .field import HalfInt
from .model import load_identity

EXIT_OK, EXIT_MISMATCH, EXIT_USAGE, EXIT_LOAD, EXIT_SHAPE = 0, 1, 2, 3, 4


class UsageError(Exception):
    pass


def parse_grid(text):
    """Half-integer grid syntax: comma list and/or a..b[:step] ranges."""
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        lo_text, is_range, rest = piece.partition("..")
        hi_text, _, step_text = rest.partition(":")
        try:
            if not is_range:
                values.append(corpus.parse_half(piece))
                continue
            lo, hi = corpus.parse_half(lo_text), corpus.parse_half(hi_text)
            step = corpus.parse_half(step_text or "1")
        except EvalTypeError as exc:
            raise UsageError(f"bad grid value {piece!r}: {exc}") from None
        if step.twice not in (1, 2):
            raise UsageError(f"grid step must be 1/2 or 1, got {step}")
        values.extend(HalfInt(twice) for twice in range(lo.twice, hi.twice + 1, step.twice))
    if not values:
        raise UsageError(f"empty grid {text!r}")
    return values


def _load_document(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot load {path}: {exc}") from exc


def _grid_spec_from_args(args):
    spec = {}
    for name in GRID_PARAMS:
        text = getattr(args, name, None)
        if text is None:
            continue
        values = parse_grid(text)
        for v in values:
            if name in ("r", "s") and v.is_negative_integer or name == "s" and v == 0:
                raise UsageError(f"inadmissible parameter {name} = {v}")
        spec[name] = [str(v) for v in values]
    return spec


def _load_entry(path, args):
    """A corpus entry whose n values and parameter grid the command line may replace."""
    spec = _grid_spec_from_args(args)
    n_values = tuple(v.as_int() for v in parse_grid(args.n)) if args.n else None
    entry = corpus.load_entry(_load_document(path))
    if spec:
        entry = replace(entry, param_grid=corpus._build_grid(spec))
    if n_values:
        entry = replace(entry, n_values=n_values)
    return entry


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    reports = []
    for path in args.paths:
        reports.append(corpus.run_entry(_load_entry(path, args)))
    _emit_reports(reports, args.format)
    return EXIT_OK if all(r.matched for r in reports) else EXIT_MISMATCH


def _emit_reports(reports, fmt):
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
        return
    width = max((len(r.name) for r in reports), default=4)
    for r in reports:
        flag = "ok " if r.matched else "FAIL"
        line = f"{flag} {r.name:<{width}} expected={r.expected} actual={r.actual}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
    bad = sum(1 for r in reports if not r.matched)
    print(f"{len(reports)} entr{'y' if len(reports) == 1 else 'ies'}, {bad} mismatched")


# ---------------------------------------------------------------------------
# transform

def _render_side(side):
    parts = []
    for sm in side.summands:
        parts.append(f"sum(k={dsl.render(sm.lower)}..{dsl.render(sm.upper)}) {sm.term.render()}")
    if side.extra is not None:
        parts.append(dsl.render(side.extra))
    return "  +  ".join(parts) if parts else "0"


def _print_cid(cid):
    print(f"# {cid.provenance}")
    print(f"lhs: {_render_side(cid.lhs)}")
    print(f"rhs: {_render_side(cid.rhs)}")


def cmd_transform(args):
    document = _load_document(args.path)
    identity = load_identity(document)
    if args.negate_t:
        from .model import substitute_neg_t
        identity = substitute_neg_t(identity)
    ops = [op.strip() for op in args.op.split(",") if op.strip()]
    if not ops:
        raise UsageError("no transform operation given")

    produced = [identity]
    for op in ops:
        next_stage = []
        for obj in produced:
            if op == "beta":
                next_stage.append(beta.beta_transform(obj))
            elif op in ("dds", "ddr"):
                if not isinstance(obj, beta.ClosedIdentity):
                    raise ShapeError("dds/ddr need a transformed identity (use beta first)")
                next_stage.append(beta.differentiate(obj, op[2]))
            elif op == "central_v":
                next_stage.extend(beta.central_transform_v(obj, _int_param(args.v, "v")))
            elif op == "central_uv":
                next_stage.append(beta.central_transform_uv(
                    obj, _int_param(args.u, "u"), _int_param(args.v, "v")))
            else:
                raise UsageError(f"unknown transform op {op!r}")
        produced = next_stage

    exit_code = EXIT_OK
    grid_spec = _grid_spec_from_args(args)
    for cid in produced:
        _print_cid(cid)
        if args.check:
            n_values = [v.as_int() for v in parse_grid(args.n)] if args.n else list(range(0, 9))
            if grid_spec:
                grid = corpus._build_grid(grid_spec)
            elif any(sm.term.factors for side in (cid.lhs, cid.rhs) for sm in side.summands):
                grid = corpus._build_grid({"r": ["1/2", "1", "3/2", "2"], "s": ["1/2", "1", "3/2", "2"]})
            else:
                grid = ({},)
            report = beta.verify_closed(cid, n_values, grid)
            verdict = "equal" if report.all_equal and not report.undefined else "NOT equal"
            print(f"check: {verdict} over n={n_values[0]}..{n_values[-1]}, {len(grid)} grid point(s)")
            if report.failures:
                p = report.failures[0]
                print(f"  first failure at n={p.n} {dict(p.params)}: {p.lhs} vs {p.rhs}")
            if report.undefined:
                p = report.undefined[0]
                print(f"  undefined at n={p.n} {dict(p.params)}: {p.error}")
            if not report.all_equal or report.undefined:
                exit_code = EXIT_MISMATCH
    return exit_code


def _int_param(text, name):
    if text is None:
        raise UsageError(f"transform needs --{name}")
    value = corpus.parse_half(text)
    if not value.is_nonneg_integer:
        raise UsageError(f"--{name} must be a nonnegative integer")
    return value.as_int()


# ---------------------------------------------------------------------------
# corpus run

def cmd_corpus(args):
    if args.action != "run":
        raise UsageError(f"unknown corpus action {args.action!r}")
    names = set(args.name) if args.name else None
    reports = corpus.run_corpus(directory=args.corpus_dir, names=names,
                                status=args.status, jobs=args.jobs)
    _emit_reports(reports, args.format)
    return EXIT_OK if all(r.matched for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args):
    bindings = {}
    for item in args.bind or ():
        name, sep, value = item.partition("=")
        if not sep or name not in dsl.VAR_NAMES:
            raise UsageError(f"bad binding {item!r} (want var=halfint)")
        bindings[name] = corpus.parse_half(value)
    expr = dsl.parse(args.expr)
    value = dsl.eval_scalar(expr, bindings)
    print(value.render())
    if args.as_float:
        print(value.to_float(args.precision))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="finsum",
                                     description="Exact verification of binomial-harmonic sum identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--n", help="n grid, e.g. 0..24 or 1,2,5")
        for name in GRID_PARAMS:
            p.add_argument(f"--{name}", help=f"{name} grid (half-integers)")

    p = sub.add_parser("verify", help="verify identity documents")
    p.add_argument("paths", nargs="+")
    add_grid_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="apply Beta/derivative/central transforms")
    p.add_argument("path")
    p.add_argument("--op", required=True,
                   help="comma chain of beta, dds, ddr, central_v, central_uv")
    add_grid_flags(p)
    p.add_argument("--negate-t", action="store_true", help="apply t -> -t first")
    p.add_argument("--check", action="store_true", help="verify the output on a default grid")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("corpus", help="operate on the shipped corpus")
    p.add_argument("action", choices=("run",))
    p.add_argument("--name", action="append", help="restrict to entry name (repeatable)")
    p.add_argument("--status", choices=("verified", "check", "disputed", "erratum_claimed"))
    p.add_argument("--corpus-dir", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("eval", help="evaluate a scalar expression exactly")
    p.add_argument("expr")
    p.add_argument("--bind", action="append", help="variable binding var=halfint (repeatable)")
    p.add_argument("--precision", type=int, default=30,
                   help="digits for --float output")
    p.add_argument("--float", action="store_true", dest="as_float",
                   help="also print a numeric value")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DslSyntaxError, EvalTypeError, PoleError, DivisionByZero,
            UnboundVariable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except ShapeError as exc:
        hint = "" if "1+t" not in str(exc) else "  (hint: try --negate-t)"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_SHAPE
    except FinsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
