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
from .beta import GRID_PARAMS
from .errors import EvalTypeError, FormatError
from .field import HalfInt, SymConst
from .model import admissible, is_json_int, load_identity

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
    return HalfInt.from_value(value)


@dataclass(frozen=True)
class Witness:
    n: int
    params: tuple            # sorted ((name, HalfInt), ...)
    lhs: SymConst
    rhs: SymConst


@dataclass(frozen=True)
class CorpusEntry:
    identity: object
    expected: str
    witness: object          # Witness or None
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


def _build_grid(spec, where="grid"):
    """Cartesian product over the per-parameter value lists, with inadmissible
    (r, s) pairs dropped when both parameters are present."""
    if not spec:
        return ({},)
    if not (isinstance(spec, dict) and all(isinstance(v, list) for v in spec.values())):
        raise FormatError(f"{where}: 'grid' must map each parameter to a list of values")
    names = sorted(spec)
    values = {name: [_document_half(name, v, where) for v in spec[name]] for name in names}
    grid = [{}]
    for name in names:
        grid = [dict(g, **{name: v}) for g in grid for v in values[name]]
    if "r" in spec and "s" in spec:
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
        w = document["witness"]
        if not (isinstance(w, dict) and is_json_int(w.get("n"))
                and isinstance(w.get("lhs"), str) and isinstance(w.get("rhs"), str)
                and isinstance(w.get("params", {}), dict)):
            raise FormatError(f"{identity.name}: witness needs an integer n, string lhs, rhs"
                              " and an object of params")
        witness = Witness(
            n=w["n"],
            params=tuple(sorted((name, _document_half(name, v, identity.name))
                                for name, v in w.get("params", {}).items())),
            lhs=SymConst.parse(w["lhs"]),
            rhs=SymConst.parse(w["rhs"]),
        )
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
    else:
        n_values = list(n_values)
    grid = _build_grid(document.get("grid"), identity.name)
    return CorpusEntry(identity, expected, witness, tuple(n_values), grid)


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
    directory = corpus_dir(directory)
    entries = []
    for entry in _listed_entries(directory, load_manifest(directory)):
        if names and entry.name not in names:
            continue
        if status and entry.identity.status != status:
            continue
        entries.append(entry)
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


def _point_str(n, params):
    bits = [f"n={n}"] + [f"{name}={val}" for name, val in params]
    return "(" + ", ".join(bits) + ")"


def run_entry(entry):
    identity = entry.identity
    if identity.is_closed:
        report = beta.verify_closed(identity, entry.n_values, entry.param_grid)
        if report.undefined:
            p = report.undefined[0]
            return _finish(entry, "undefined",
                           f"undefined at {_point_str(p.n, p.params)}: {p.error}")
        if report.all_equal:
            return _finish(entry, "equal", "")
        p = report.failures[0]
        detail = f"unequal at {_point_str(p.n, p.params)}: lhs={p.lhs}, rhs={p.rhs}"
        return _finish(entry, "unequal", detail)
    # polynomial entry
    for n in entry.n_values:
        rep = polyverify.verify_poly(identity, n)
        if not rep.equal:
            i, lc, rc = rep.first_difference
            detail = f"unequal at n={n}, t^{i}: lhs={lc}, rhs={rc}"
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
    """Re-evaluate the stored witness point and compare both exact sides."""
    w = entry.witness
    lhs, rhs = beta.eval_closed(entry.identity, w.n, **dict(w.params))
    return lhs == w.lhs and rhs == w.rhs and lhs != rhs


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
