"""Make-up of the benchmark's workloads and the seeded choice of the points
the oracle checks.

This module reads the corpus documents as JSON and never imports finsum, so
the benchmark process that times, checks and reports stays free of the
engine.  Each unit of a workload is a list of jobs; every job runs in a fresh
worker process (``worker.py``), so every sample starts from the cold caches a
fresh ``finsum`` process has.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_DIR = SRC / "finsum" / "corpus_data"
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("corpus", "poly-expand", "derive-grid")

# corpus: `corpus run --name ...` on consecutive chunks of the manifest, in
# one process, with a reference point between chunks
CORPUS_CHUNKS = 12
SHORT_CORPUS_CHUNKS = 3

# poly-expand: n values past the shipped 0..24 range of every polynomial entry
POLY_N = (26, 30, 34)
SHORT_POLY_N = (25,)

# derive-grid: (r, s) grid with half-odd r and both half-odd and integer s
GRID_R = ("1/2", "3/2")
GRID_S = ("1/2", "1")
BETA_CHAINS = (("beta",), ("beta", "ddr"), ("beta", "dds"))
CENTRAL_SEEDS = ("kb-standard-delta", "ordertwo-standard-delta", "sqharmonic-standard-delta")
CENTRAL_V = (1, 2)
CENTRAL_UV = ((1, 1), (2, 1))

# short mode: the same paths and checks at a size that runs in seconds
SHORT_CORPUS = ("alt-harmonic-shift", "dattoli-r1", "sqharmonic-full-r",
                "sqharmonic-full-particular", "kb-standard-delta",
                "partial-sum-gf-recip", "central-ordertwo-v")
SHORT_SEEDS = ("kb-standard-delta", "binomial-theorem")
SHORT_N = (0, 4)

STATUS_VERDICT = {"verified": "equal", "check": "recorded",
                  "disputed": "unequal", "erratum_claimed": "unequal"}


def require_layout():
    """Raise FileNotFoundError unless the checkout holds the engine sources."""
    for path in (SRC / "finsum" / "__init__.py", CORPUS_DIR / "manifest.json"):
        if not path.is_file():
            raise FileNotFoundError(f"engine source missing: {path}")


def load_documents():
    """Corpus documents by name, in manifest order."""
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text())
    docs = {}
    for file_name in manifest["entries"]:
        doc = json.loads((CORPUS_DIR / file_name).read_text())
        doc["_file"] = file_name
        docs[doc["name"]] = doc
    return docs


def load_recorded():
    return json.loads((Path(__file__).resolve().parent / "recorded.json").read_text())


def is_closed(doc):
    return doc["lhs"]["kind"] == "closed"


def is_standard(doc):
    return doc["lhs"]["kind"] == "standard" and doc["rhs"]["kind"] == "standard"


def needs_flip(doc):
    """True when a standard side has a (1+t)^b term with b not identically 0."""
    return any(term.get("base") == "1+t" and affine(term.get("base_exp", 0)) != [0, 0, 0]
               for side in (doc["lhs"], doc["rhs"]) for term in side.get("terms", ()))


def affine(value):
    """An exponent of a standard term as [coef_k, coef_n, constant]."""
    return [0, 0, value] if isinstance(value, int) else list(value)


def expected_verdict(doc, recorded):
    """The verdict the engine must reach: the document's, or for a ``check``
    entry the verdict kept in recorded.json."""
    expected = doc.get("expected") or STATUS_VERDICT[doc.get("status", "verified")]
    if expected == "recorded":
        return recorded[doc["name"]]["verdict"]
    return expected


def n_values(doc):
    lo, hi = doc.get("n", [0, 16])
    values = range(lo, hi + 1)
    parity = doc.get("parity")
    if parity == "even":
        return [n for n in values if n % 2 == 0]
    if parity == "odd":
        return [n for n in values if n % 2 == 1]
    return list(values)


def admissible(r, s):
    """The transform lemmas' constraint: r, s not negative integers, s != 0,
    r - s not a negative integer."""
    def neg_int(q):
        return q.denominator == 1 and q < 0
    return not (neg_int(r) or neg_int(s) or s == 0 or neg_int(r - s))


def param_grid(spec):
    """Cartesian product of per-parameter value lists (strings), dropping
    inadmissible (r, s) pairs when both are present."""
    grid = [{}]
    for name in sorted(spec or {}):
        grid = [dict(g, **{name: str(v)}) for g in grid for v in spec[name]]
    if spec and "r" in spec and "s" in spec:
        grid = [g for g in grid if admissible(Fraction(g["r"]), Fraction(g["s"]))]
    return grid


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# units

def unit_jobs(workload, seed, short=False):
    """The jobs of one unit of ``workload``, with the oracle samples that the
    first unit of a run evaluates after its timed region."""
    docs = load_documents()
    recorded = load_recorded()
    rng = _rng(workload, seed)
    if workload == "corpus":
        return [_corpus_job(docs, recorded, rng, short)]
    if workload == "poly-expand":
        return _poly_jobs(docs, rng, short)
    if workload == "derive-grid":
        return _derive_jobs(docs, rng, short)
    raise ValueError(f"unknown workload {workload!r}")


def _corpus_job(docs, recorded, rng, short):
    names = list(SHORT_CORPUS) if short else list(docs)
    size = -(-len(names) // (SHORT_CORPUS_CHUNKS if short else CORPUS_CHUNKS))
    chunks = [names[i:i + size] for i in range(0, len(names), size)]
    closed, poly, check = [], [], []
    for name in names:
        doc = docs[name]
        if name in recorded:
            rec = recorded[name]
            closed.append({"entry": name, "n": rec["first_unequal_n"], "params": rec.get("params", {})})
            check.append({"entry": name})
        elif is_closed(doc) and "witness" in doc:
            w = doc["witness"]
            closed.append({"entry": name, "n": w["n"], "params": dict(w.get("params", {}))})
        elif is_closed(doc):
            grid = param_grid(doc.get("grid"))
            closed.append({"entry": name, "n": rng.choice(n_values(doc)), "params": rng.choice(grid)})
        else:
            poly.append({"entry": name, "n": rng.choice(n_values(doc))})
    return {"kind": "corpus", "chunks": chunks, "entries": names,
            "samples": {"closed": closed, "poly": poly, "check": check}}


def _poly_jobs(docs, rng, short):
    """One cold job per n; each entry's oracle sample rides on the job of a
    seeded one of the n values."""
    names = [name for name, doc in docs.items() if not is_closed(doc)]
    rng.shuffle(names)
    ns = SHORT_POLY_N if short else POLY_N
    sample_n = {name: rng.choice(ns) for name in names}
    return [{"kind": "poly", "entries": names, "n": [n],
             "samples": {"poly": [{"entry": name, "n": n} for name in names if sample_n[name] == n]}}
            for n in ns]


def _derive_jobs(docs, rng, short):
    seeds = SHORT_SEEDS if short else [name for name, doc in docs.items() if is_standard(doc)]
    grid = param_grid({"r": GRID_R, "s": GRID_S})
    jobs = []
    for name in seeds:
        doc = docs[name]
        ns = n_values(doc)
        if short:
            ns = [n for n in ns if SHORT_N[0] <= n <= SHORT_N[1]]
        for chain in BETA_CHAINS:
            jobs.append({"kind": "transform", "seed": name, "file": doc["_file"], "ops": list(chain),
                         "flip": needs_flip(doc), "n": ns, "grid": grid})
        if name in CENTRAL_SEEDS:
            for v in CENTRAL_V[:1] if short else CENTRAL_V:
                jobs.append({"kind": "transform", "seed": name, "file": doc["_file"], "ops": ["central_v"],
                             "v": v, "n": ns, "grid": [{}]})
            for u, v in CENTRAL_UV[:1] if short else CENTRAL_UV:
                jobs.append({"kind": "transform", "seed": name, "file": doc["_file"], "ops": ["central_uv"],
                             "u": u, "v": v, "n": ns, "grid": [{}]})
    rng.shuffle(jobs)
    for job in jobs:
        job["samples"] = {"transform": [{"n": rng.choice(job["n"]), "params": rng.choice(job["grid"])}]}
    return jobs


def outputs_per_job(job):
    """How many closed identities one transform job produces."""
    return 2 if job["ops"] == ["central_v"] else 1


def ops_per_unit(jobs):
    """Operations one unit attempts: corpus and poly entries verified, or
    transform outputs verified over their grid."""
    total = 0
    for job in jobs:
        if job["kind"] == "transform":
            total += outputs_per_job(job)
        else:
            total += len(job["entries"])
    return total
