"""Corpus loading and batch verification.

A corpus directory holds one JSON document per identity (the identity fields
plus expected verdict, optional witness, and verification grid) and a
``manifest.json`` naming every entry file and carrying the source-equation
checklist used by the coverage check.

The default corpus ships inside the package (``corpus_data/``); the
``FINSUM_CORPUS_DIR`` environment variable overrides it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import beta, polyverify
from .errors import EvalTypeError, FinsumError, FormatError, UsageError
from .field import SymConst, half
from .model import GRID_PARAMS, admissible, grid_params_read, is_json_int, load_identity

DEFAULT_DIR = Path(__file__).parent / "corpus_data"

EXPECTED = ("equal", "unequal")


def corpus_dir(override=None):
    if override:
        return Path(override)
    env = os.environ.get("FINSUM_CORPUS_DIR")
    return Path(env) if env else DEFAULT_DIR


def parse_half(text):
    """A half-integer from command-line / document syntax: '3', '-1/2', '5/2';
    EvalTypeError for any other text."""
    try:
        value = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise EvalTypeError(f"{text!r} is not a number") from None
    return half(value)


@dataclass(frozen=True)
class CorpusEntry:
    identity: object
    expected: str
    witness: object          # beta.PointResult, PolyWitness or None
    n_values: tuple
    param_grid: tuple        # tuple of dicts

    @property
    def name(self):
        return self.identity.name


def _document_half(name, text, where):
    """``parse_half`` on a document's value of parameter ``name``, with
    FormatError for an unknown name or a value that is not a half-integer."""
    if name not in GRID_PARAMS:
        raise FormatError(f"{where}: unknown parameter {name!r} (want one of {', '.join(GRID_PARAMS)})")
    try:
        return parse_half(text)
    except EvalTypeError as exc:
        raise FormatError(f"{where}: bad parameter value {text!r}: {exc}") from None


def _document_grid(spec, where):
    """A document's 'grid' object as {name: [half-integer, ...]}."""
    if not spec:
        return {}
    if not (isinstance(spec, dict) and all(isinstance(v, list) for v in spec.values())):
        raise FormatError(f"{where}: 'grid' must map each parameter to a list of values")
    return {name: [_document_half(name, v, where) for v in spec[name]] for name in sorted(spec)}


def grid_points(values):
    """The Cartesian product over {name: [half-integer, ...]}, as a tuple of
    dicts, with inadmissible (r, s) pairs dropped when both are present."""
    grid = [{}]
    for name in sorted(values):
        grid = [dict(g, **{name: v}) for g in grid for v in values[name]]
    if "r" in values and "s" in values:
        grid = [g for g in grid if admissible(g["r"], g["s"])]
    return tuple(grid)


def load_entry(document):
    """Parse a corpus document (dict or JSON text) into a CorpusEntry."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from None
    identity = load_identity(document)
    expected = document.get("expected")
    if expected is None:
        if identity.status == "check":
            raise FormatError(f"{identity.name}: a 'check' entry must state its expected verdict")
        expected = "equal" if identity.status == "verified" else "unequal"
    if expected not in EXPECTED:
        raise FormatError(f"{identity.name}: unknown expected verdict {expected!r}")
    witness = None
    if "witness" in document:
        witness = _load_witness(document["witness"], identity)
    if expected == "unequal" and witness is None:
        raise FormatError(f"{identity.name}: expected unequal without a witness")
    n_range = document.get("n", [0, 16])
    if not (isinstance(n_range, list) and len(n_range) == 2 and all(map(is_json_int, n_range))):
        raise FormatError(f"{identity.name}: 'n' must be a list [lo, hi] of two integers")
    n_values = range(n_range[0], n_range[1] + 1)
    parity = document.get("parity")
    if parity == "even":
        n_values = [n for n in n_values if n % 2 == 0]
    elif parity == "odd":
        n_values = [n for n in n_values if n % 2 == 1]
    elif "parity" in document:
        raise FormatError(f"{identity.name}: 'parity' must be \"even\" or \"odd\", not {parity!r}")
    else:
        n_values = list(n_values)
    if not n_values:
        raise FormatError(f"{identity.name}: 'n' {n_range} leaves no {parity or 'integer'} n")
    grid_values = _document_grid(document.get("grid"), identity.name)
    if identity.is_closed:
        _require_bound(identity, grid_values, "'grid'")
    grid = grid_points(grid_values)
    if not grid:
        raise FormatError(f"{identity.name}: 'grid' leaves no admissible point")
    return CorpusEntry(identity, expected, witness, tuple(n_values), grid)


@dataclass(frozen=True)
class PolyWitness:
    """The lowest power of t at which a polynomial identity's sides differ
    at n, with both coefficients: ``PolyReport.first_difference`` there."""

    n: int
    power: int
    lhs: SymConst
    rhs: SymConst


def _load_witness(w, identity):
    """A document's witness: the ``beta.PointResult`` of a closed identity's
    failing point, or the ``PolyWitness`` of a polynomial identity's first
    differing power; FormatError for any malformed value."""
    name = identity.name
    shaped = (isinstance(w, dict) and is_json_int(w.get("n"))
              and isinstance(w.get("lhs"), str) and isinstance(w.get("rhs"), str))
    if identity.is_closed:
        if not (shaped and isinstance(w.get("params", {}), dict)):
            raise FormatError(f"{name}: witness needs an integer n, string lhs, rhs"
                              " and an object of params")
        params = {key: _document_half(key, v, name) for key, v in w.get("params", {}).items()}
        _require_bound(identity, params, "witness")
    elif not (shaped and is_json_int(w.get("power")) and w["power"] >= 0):
        raise FormatError(f"{name}: a polynomial witness needs integers n and power >= 0"
                          " and string lhs, rhs")
    try:
        lhs, rhs = SymConst.parse(w["lhs"]), SymConst.parse(w["rhs"])
    except FinsumError as exc:
        raise FormatError(f"{name}: bad witness value: {exc}") from None
    if identity.is_closed:
        return beta.PointResult(w["n"], tuple(sorted(params.items())), lhs, rhs)
    return PolyWitness(w["n"], w["power"], lhs, rhs)


def _require_bound(identity, values, where):
    """FormatError when ``values`` leaves a grid parameter that the closed
    identity reads unbound."""
    unbound = sorted(grid_params_read(identity).difference(values))
    if unbound:
        raise FormatError(f"{identity.name}: {where} leaves {', '.join(unbound)} unbound")


def load_manifest(directory=None):
    """The manifest: an object with a list of file names in ``entries`` and a
    list of checklist objects, with string fields, in ``paper_equations``."""
    directory = corpus_dir(directory)
    path = directory / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot load manifest {path}: {exc}") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("entries"), list)
            and all(isinstance(name, str) for name in manifest["entries"])
            and isinstance(manifest.get("paper_equations", []), list)
            and all(isinstance(item, dict) and all(isinstance(v, str) for v in item.values())
                    for item in manifest.get("paper_equations", []))):
        raise FormatError(f"manifest {path} needs a list of file names in 'entries' and"
                          " a list of objects of strings in 'paper_equations'")
    return manifest


def _listed_entries(directory, manifest):
    for file_name in manifest["entries"]:
        try:
            yield load_entry((directory / file_name).read_text())
        except (OSError, FormatError) as exc:
            raise FormatError(f"cannot load corpus file {file_name}: {exc}") from exc


def load_entries(directory=None, names=None, status=None):
    """The manifest's entries, those in ``names`` and of ``status`` when given;
    a name that no entry has is a UsageError naming each such name."""
    directory = corpus_dir(directory)
    entries, unknown = [], set(names or ())
    for entry in _listed_entries(directory, load_manifest(directory)):
        unknown.discard(entry.name)
        if (not names or entry.name in names) and (not status or entry.identity.status == status):
            entries.append(entry)
    if unknown:
        raise UsageError(f"no corpus entry named {', '.join(map(repr, sorted(unknown)))}")
    return entries


@dataclass(frozen=True)
class EntryReport:
    name: str
    status: str
    expected: str
    actual: str              # equal | unequal | undefined
    matched: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "status": self.status, "expected": self.expected,
                "actual": self.actual, "matched": self.matched, "detail": self.detail}


def run_entry(entry):
    identity = entry.identity
    if identity.is_closed:
        report = beta.verify_closed(identity, entry.n_values, entry.param_grid)
        if report.undefined:
            p = report.undefined[0]
            return _finish(entry, "undefined",
                           f"undefined at {p.where}: {p.error}")
        if report.all_equal:
            return _finish(entry, "equal", "")
        p = report.failures[0]
        detail = f"unequal at {p.where}: lhs={p.lhs}, rhs={p.rhs}"
        return _finish(entry, "unequal", detail)
    # polynomial entry
    for rep in polyverify.verify_poly_each(identity, entry.n_values):
        if not rep.equal:
            i, lc, rc = rep.first_difference
            detail = f"unequal at n={rep.n}, t^{i}: lhs={lc}, rhs={rc}"
            return _finish(entry, "unequal", detail)
    return _finish(entry, "equal", "")


def _finish(entry, actual, detail):
    expected = entry.expected
    if expected == "unequal":
        matched = actual == "unequal" and _witness_holds(entry)
        if actual == "unequal" and not matched:
            detail += " (stored witness not reproduced)"
    else:
        matched = actual == expected
    return EntryReport(entry.name, entry.identity.status, expected, actual, matched, detail)


def _witness_holds(entry):
    """Re-evaluate the stored witness: it holds when both exact sides come
    out as stored and differ, at the witness point of a closed identity or
    as the first difference at n of a polynomial one.  A point that is
    undefined, or an n that cannot be expanded, does not."""
    w = entry.witness
    if isinstance(w, PolyWitness):
        try:
            found = polyverify.verify_poly(entry.identity, w.n).first_difference
        except FinsumError:
            return False
        return found == (w.power, w.lhs, w.rhs)
    return not w.equal and beta.verify_closed(
        entry.identity, (w.n,), (dict(w.params),)).results == (w,)


def run_corpus(directory=None, names=None, status=None, jobs=1):
    entries = load_entries(directory, names=names, status=status)
    if jobs and jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_entry, entries))
    else:
        reports = [run_entry(e) for e in entries]
    return reports


def check_coverage(directory=None):
    """Every source display equation must map to an entry, a named test
    suite, a definition, or an explicit out-of-scope item.

    Returns a list of problem strings (empty = pass).
    """
    directory = corpus_dir(directory)
    manifest = load_manifest(directory)
    entry_names = {entry.name for entry in _listed_entries(directory, manifest)}
    problems = []
    seen = set()
    for item in manifest.get("paper_equations", []):
        label = item.get("label")
        category = item.get("category", "")
        if not label:
            problems.append(f"checklist item without label: {item!r}")
            continue
        if label in seen:
            problems.append(f"duplicate checklist label {label}")
        seen.add(label)
        if category.startswith("entry:"):
            targets = category[len("entry:"):].split(",")
            for target in targets:
                if target not in entry_names:
                    problems.append(f"{label}: names missing entry {target!r}")
        elif category.startswith("suite:"):
            if not category[len("suite:"):]:
                problems.append(f"{label}: empty suite reference")
        elif category not in ("definition", "out-of-scope"):
            problems.append(f"{label}: unknown category {category!r}")
    return problems
