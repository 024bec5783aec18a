"""One job of a benchmark unit, run in a fresh process.

Reads a job (JSON) on stdin, imports finsum from the checkout's ``src``,
loads the documents the job needs (set-up), runs the timed region once, then,
outside the timed region, evaluates the oracle samples the job carries.
Prints one JSON object as its last line of output.

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import reference

SRC = Path(__file__).resolve().parent.parent / "src"
PIECE_S = 0.5               # poly-expand: timed work between two reference points


def _import_engine():
    sys.path.insert(0, str(SRC))
    import finsum
    from finsum import beta, cli, corpus, polyverify  # noqa: F401
    if Path(finsum.__file__).resolve().parent != (SRC / "finsum").resolve():
        raise ImportError(f"finsum imported from {finsum.__file__}, not from {SRC}")


def _load(job, corpus):
    """Set-up: the documents the timed region works on."""
    if job["kind"] == "transform":
        path = corpus.corpus_dir() / job["file"]
        return {job["seed"]: corpus.load_entry(path.read_text())}
    if job["kind"] == "poly":
        names = set(job["entries"])
        return {e.name: e for e in corpus.load_entries(names=names)}
    return {e.name: e for e in corpus.load_entries()}


# ---------------------------------------------------------------------------
# timed regions

def _run_corpus(job, entries, timeline):
    """``finsum corpus run`` on the job's chunks of entries, one after the
    other in this process, so caches are shared across all entries as in
    one run; a reference point is taken between chunks, except when traced
    (the tracer would count its Fractions)."""
    from finsum import cli
    codes, reports = [], []
    for i, names in enumerate(job["chunks"]):
        if i and not job.get("trace"):
            timeline.append(["ref", reference.point()])
        argv = ["corpus", "run", "--format", "json"] + [arg for name in names for arg in ("--name", name)]
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf):
            codes.append(cli.main(argv))
        timeline.append(["job", time.perf_counter() - start])
        reports += json.loads(buf.getvalue())
    return {"exit": max(codes), "reports": [{key: r[key] for key in ("name", "expected", "actual", "matched")}
                                            for r in reports]}, None


def _run_poly(job, entries, timeline):
    """``run_entry`` on each entry at the job's n, with a reference point
    whenever PIECE_S of timed work has passed, except when traced."""
    from finsum import corpus
    n_values = tuple(job["n"])
    reports = []
    start = time.perf_counter()
    for name in job["entries"]:
        r = corpus.run_entry(replace(entries[name], n_values=n_values))
        reports.append({"name": r.name, "expected": r.expected, "actual": r.actual,
                        "matched": r.matched})
        if time.perf_counter() - start >= PIECE_S and not job.get("trace"):
            timeline.append(["job", time.perf_counter() - start])
            timeline.append(["ref", reference.point()])
            start = time.perf_counter()
    timeline.append(["job", time.perf_counter() - start])
    return {"reports": reports}, None


def _transform(job, identity):
    from finsum import beta
    ops = job["ops"]
    if ops[0] == "beta":
        cid = beta.beta_transform(beta.normalized_for_beta(identity) if job["flip"] else identity)
        for op in ops[1:]:
            cid = beta.differentiate(cid, op[2])
        return [cid]
    if ops == ["central_v"]:
        return list(beta.central_transform_v(identity, job["v"]))
    if ops == ["central_uv"]:
        return [beta.central_transform_uv(identity, job["u"], job["v"])]
    raise ValueError(f"unknown transform chain {ops!r}")


def _run_transform(job, entries, timeline):
    from finsum import beta
    identity = entries[job["seed"]].identity
    outputs = _transform(job, identity)
    grid = [{name: Fraction(v) for name, v in point.items()} for point in job["grid"]]
    results = []
    for cid in outputs:
        report = beta.verify_closed(cid, job["n"], grid)
        results.append({"provenance": cid.provenance, "points": len(report.results),
                        "failures": len(report.failures), "undefined": len(report.undefined)})
    return {"outputs": results}, outputs


RUN = {"corpus": _run_corpus, "poly": _run_poly, "transform": _run_transform}


# ---------------------------------------------------------------------------
# oracle samples, evaluated by the engine after the timed region

def _closed_values(cid, n, params):
    from finsum import beta
    lhs, rhs = beta.eval_closed(cid, n, **{k: Fraction(v) for k, v in params.items()})
    return {"lhs": lhs.render(), "rhs": rhs.render()}


def _samples(job, entries, outputs):
    from finsum import beta, polyverify
    samples = job.get("samples") or {}
    out = {}
    if "closed" in samples:
        out["closed"] = [dict(s, **_closed_values(beta.from_model(entries[s["entry"]].identity),
                                                   s["n"], s["params"]))
                         for s in samples["closed"]]
    if "poly" in samples:
        out["poly"] = []
        for s in samples["poly"]:
            identity = entries[s["entry"]].identity
            out["poly"].append(dict(s, **{
                side: [c.render() for c in polyverify.expand_side(getattr(identity, side), s["n"]).coeffs]
                for side in ("lhs", "rhs")}))
    if "check" in samples:
        out["check"] = []
        for s in samples["check"]:
            entry = entries[s["entry"]]
            report = beta.verify_closed(beta.from_model(entry.identity), entry.n_values,
                                        entry.param_grid)
            per_n = {}
            for p in report.results:
                per_n.setdefault(p.n, []).append(p.equal)
            out["check"].append(dict(s, per_n=[[n, all(eq)] for n, eq in per_n.items()],
                                     undefined=len(report.undefined)))
    if "transform" in samples:
        out["transform"] = [dict(s, values=[_closed_values(cid, s["n"], s["params"]) for cid in outputs])
                            for s in samples["transform"]]
    return out


# ---------------------------------------------------------------------------

def _peak_rss_mb():
    """Peak resident set of this process.  VmHWM restarts at exec, while
    ru_maxrss keeps the high-water mark of the parent the worker forked from."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(job):
    start = time.perf_counter()
    _import_engine()
    from finsum import corpus
    tracer = None
    if job.get("trace"):
        from trace_hooks import Tracer
        tracer = Tracer()
        tracer.install()
    entries = _load(job, corpus)
    setup_s = time.perf_counter() - start
    if job.get("setup_only"):
        return {"ok": True, "setup_s": setup_s}
    if job.get("samples_only"):
        outputs = _transform(job, entries[job["seed"]].identity) if job["kind"] == "transform" else None
        return {"ok": True, "samples": _samples(job, entries, outputs)}

    timeline = []
    t0 = time.perf_counter()
    result, outputs = RUN[job["kind"]](job, entries, timeline)
    wall_s = time.perf_counter() - t0
    if not timeline:
        timeline = [["job", wall_s]]
    else:
        wall_s = sum(t for kind, t in timeline if kind == "job")
    peak_rss_mb = _peak_rss_mb()
    out = {"ok": True, "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "timeline": timeline, "result": result}
    if tracer is not None:
        out["layers"] = tracer.report()
        out["spans"] = tracer.records
    out["samples"] = _samples(job, entries, outputs)
    return out


def main():
    job = json.loads(sys.stdin.read())
    try:
        out = run(job)
    except Exception:  # reported to the benchmark process as a failed job
        out = {"ok": False, "error": traceback.format_exc()}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
