"""Command-line front end.

Subcommands: ``verify`` (identity documents against their expected verdicts),
``transform`` (print/verify Beta, derivative, and central transforms),
``corpus run`` (the whole shipped library), ``eval`` (exact expression
evaluation).  Exit codes: 0 expectations met, 1 mismatch, 2 usage error,
3 load error, 4 shape error; an error's code is its class's ``exit_code``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import beta, corpus, dsl
from .errors import EvalTypeError, FinsumError, FormatError, ShapeError, UsageError
from .field import half, to_int, to_twice
from .model import (GRID_PARAMS, grid_params_read, is_negative_integer, load_identity,
                    substitute_neg_t)

EXIT_OK, EXIT_MISMATCH, EXIT_USAGE = 0, 1, 2


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
        if step not in (Fraction(1, 2), 1):
            raise UsageError(f"grid step must be 1/2 or 1, got {step}")
        values.extend(half(Fraction(twice, 2))
                      for twice in range(to_twice(lo), to_twice(hi) + 1, to_twice(step)))
    if not values:
        raise UsageError(f"empty grid {text!r}")
    return values


def _load_document(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot load {path}: {exc}") from exc


def _grid_values_from_args(args):
    """{name: [half-integer, ...]} for each grid parameter given on the command line."""
    values = {}
    for name in GRID_PARAMS:
        text = getattr(args, name, None)
        if text is None:
            continue
        values[name] = parse_grid(text)
        for v in values[name]:
            if name in ("r", "s") and is_negative_integer(v) or name == "s" and v == 0:
                raise UsageError(f"inadmissible parameter {name} = {v}")
    return values


def _grid_points(values):
    """``corpus.grid_points`` of the command line's grid values; UsageError
    when they leave no admissible point."""
    grid = corpus.grid_points(values)
    if not grid:
        raise UsageError("the grid leaves no admissible (r, s) point")
    return grid


def _refuse_unread(name, grid_values, read):
    """UsageError naming each grid flag given whose parameter nothing reads."""
    unread = [f"--{param}" for param in grid_values if param not in read]
    if unread:
        raise UsageError(f"{name}: nothing reads {', '.join(unread)}")


def _load_entry(path, args, grid_values):
    """A corpus entry whose n values and parameter grid the command line may
    replace; UsageError for a grid that leaves a parameter it reads unbound."""
    n_values = tuple(to_int(v) for v in parse_grid(args.n)) if args.n else None
    entry = corpus.load_entry(_load_document(path))
    if grid_values:
        if not entry.identity.is_closed:
            flags = ", ".join(f"--{name}" for name in grid_values)
            raise UsageError(f"{entry.name}: a polynomial entry reads no grid ({flags})")
        unbound = sorted(grid_params_read(entry.identity).difference(grid_values))
        if unbound:
            raise UsageError(f"{entry.name}: the command-line grid leaves"
                             f" {', '.join(unbound)} unbound")
        entry = replace(entry, param_grid=_grid_points(grid_values))
    if n_values:
        entry = replace(entry, n_values=n_values)
    return entry


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    grid_values = _grid_values_from_args(args)
    entries = [_load_entry(path, args, grid_values) for path in args.paths]
    for entry in entries if grid_values else ():    # after every unbound check
        _refuse_unread(entry.name, grid_values, grid_params_read(entry.identity))
    reports = [corpus.run_entry(entry) for entry in entries]
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
    return "  +  ".join(f"sum(k={dsl.render(sm.lower)}..{dsl.render(sm.upper)}) {sm.term.render()}"
                        for sm in side.summands) or "0"


def _print_cid(cid):
    print(f"# {cid.provenance}")
    print(f"lhs: {_render_side(cid.lhs)}")
    print(f"rhs: {_render_side(cid.rhs)}")


def cmd_transform(args):
    document = _load_document(args.path)
    identity = load_identity(document)
    if args.negate_t:
        identity = substitute_neg_t(identity)
    ops = [op.strip() for op in args.op.split(",") if op.strip()]
    if not ops:
        raise UsageError("no transform operation given")
    read = {"u", "v"} if "central_uv" in ops else {"v"} if "central_v" in ops else set()
    if not args.check:
        unread = [f"--{name}" for name in ("n",) + GRID_PARAMS
                  if getattr(args, name) is not None and name not in read]
        if unread:
            raise UsageError(f"nothing reads {', '.join(unread)} without --check")

    produced = [identity]
    for op in ops:
        next_stage = []
        for obj in produced:
            if op == "beta":
                next_stage.append(beta.beta_transform(obj))
            elif op in ("dds", "ddr"):
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
    grid_values = _grid_values_from_args(args)
    given_grid = _grid_points(grid_values) if grid_values else None
    for cid in produced if args.check else ():
        if not (cid.lhs.summands or cid.rhs.summands):
            raise ShapeError(f"{cid.provenance}: both sides are 0, so --check has nothing to check")
        # a given grid replaces the default one, so it must bind what the outputs read
        unbound = sorted(grid_params_read(cid).difference(grid_values)) if given_grid else ()
        if unbound:
            raise UsageError(f"variable {unbound[0]!r} is unbound")
    for cid in produced if args.check else ():      # after every unbound check
        _refuse_unread(cid.provenance, grid_values, read | grid_params_read(cid))
    n_values = [to_int(v) for v in parse_grid(args.n)] if args.n else list(range(0, 9))
    for cid in produced:
        _print_cid(cid)
        if args.check:
            if given_grid:
                grid = given_grid
            elif grid_params_read(cid):
                grid = corpus.grid_points(dict.fromkeys("rs", parse_grid("1/2..2:1/2")))
            else:
                grid = ({},)
            report = beta.verify_closed(cid, n_values, grid)
            verdict = "equal" if report.all_equal and not report.undefined else "NOT equal"
            print(f"check: {verdict} over n={n_values[0]}..{n_values[-1]}, {len(grid)} grid point(s)")
            if report.failures:
                p = report.failures[0]
                print(f"  first failure at {p.where}: {p.lhs} vs {p.rhs}")
            if report.undefined:
                p = report.undefined[0]
                print(f"  undefined at {p.where}: {p.error}")
            if not report.all_equal or report.undefined:
                exit_code = EXIT_MISMATCH
    return exit_code


def _int_param(text, name):
    if text is None:
        raise UsageError(f"transform needs --{name}")
    value = corpus.parse_half(text)
    if type(value) is not int or value < 0:
        raise UsageError(f"--{name} must be a nonnegative integer")
    return value


# ---------------------------------------------------------------------------
# corpus run

def cmd_corpus(args):
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    names = set(args.name) if args.name else None
    reports = corpus.run_corpus(directory=args.corpus_dir, names=names,
                                status=args.status, jobs=args.jobs)
    _emit_reports(reports, args.format)
    return EXIT_OK if all(r.matched for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args):
    if args.precision is not None and not args.as_float:
        raise UsageError("--precision applies only with --float")
    if args.precision is not None and args.precision < 10:
        raise UsageError(f"--precision must be at least 10, got {args.precision}")
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
        print(value.to_float(30 if args.precision is None else args.precision))
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
    p.add_argument("expr", nargs="?")   # optional only to argparse; see main
    p.add_argument("--bind", action="append", help="variable binding var=halfint (repeatable)")
    p.add_argument("--precision", type=int,
                   help="digits for --float output (default 30)")
    p.add_argument("--float", action="store_true", dest="as_float",
                   help="also print a numeric value")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse leaves an eval expression like "-k" or "-(1)" over as an unknown option
        if getattr(args, "expr", "") is None and extra and not extra[0].startswith("--"):
            args.expr = extra.pop(0)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if getattr(args, "expr", "") is None:
            parser.error("the following arguments are required: expr")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FinsumError as exc:
        hint = "  (hint: try --negate-t)" if isinstance(exc, ShapeError) and "1+t" in str(exc) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
