"""finsum benchmark: one workload, measured from cold processes.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --workload derive-grid --short   # reduced size

A run repeats whole units of the workload until ``--seconds`` have passed.
Every job of a unit runs in a fresh worker process (worker.py), so its
caches start cold, as those of a fresh ``finsum`` process do; no workload is
repeated inside one process.  Between jobs this process times a fixed
stdlib-only reference loop, which never calls finsum.  After the last unit,
outside the timed region, the outputs are checked: verdicts against the
documents and recorded.json, sampled values against the sympy oracle.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Raw per-unit figures
and the trace's spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "ref_time": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.main.self_s": "s",
    "corpus.run_entry.self_s": "s",
    "corpus.load_s": "s",
    "model.load_identity_s": "s",
    "dsl.parse_s": "s",
    "dsl.eval_scalar.calls": "count",
    "dsl.eval_scalar.nodes": "count",
    "dsl.eval_scalar.self_s": "s",
    "beta.transform_s": "s",
    "beta.eval_term.calls": "count",
    "beta.eval_term.self_s": "s",
    "beta.memo.lookups": "count",
    "beta.memo.hits": "count",
    "beta.memo.size": "count",
    "special.gen_binom.calls": "count",
    "special.gen_binom.misses": "count",
    "special.gen_binom.self_s": "s",
    "special.harmonic.calls": "count",
    "special.harmonic.self_s": "s",
    "special.gamma_half.calls": "count",
    "special.cache_entries": "count",
    "polyverify.expand_side.self_s": "s",
    "polyverify.densepoly_mul.calls": "count",
    "polyverify.densepoly_mul.self_s": "s",
    "polyverify.binomial_power.calls": "count",
    "field.symconst.new": "count",
    "field.symconst.mul": "count",
    "field.symconst.add": "count",
    "field.symconst.rational_share": "ratio",
    "fractions.new": "count",
    "trace.wall_s": "s",
}

MIN_SETUP_SAMPLES = 9
REF_EVERY_S = 1.0           # job time between two reference points
JOB_TIMEOUT_S = 170


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_fastest_cpu():
    """Take a reference point on each CPU this process may use and stay on
    the fastest for the next unit.  Workers inherit the mask, so a unit's
    jobs and the reference points around them run on the same CPU, and a
    CPU that others keep busy is avoided.  Returns that CPU's point."""
    if len(CPUS) < 2:
        return reference.point()
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = reference.point()
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return times[best]


def run_job(job):
    """Run one job in a fresh worker process and return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, cwd=str(workloads.ROOT), env=env,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker exceeded {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def ref_time(timeline):
    """Sum over the unit's jobs of each job's wall divided by the mean of the
    reference points taken just before and just after it."""
    total = 0.0
    for i, event in enumerate(timeline):
        if event[0] == "job":
            before = next(e[1] for e in reversed(timeline[:i]) if e[0] == "ref")
            after = next(e[1] for e in timeline[i + 1:] if e[0] == "ref")
            total += event[1] / ((before + after) / 2)
    return total


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace, short=False):
    """Run whole units for ``seconds``; return the run's result object and
    the raw per-unit figures."""
    jobs = workloads.unit_jobs(workload, seed, short)
    ops = workloads.ops_per_unit(jobs)
    docs = workloads.load_documents()
    recorded = workloads.load_recorded()
    start = time.perf_counter()
    units, problems, errors, setups = [], [], [], []
    checked = []              # (job, worker report), checked after the last unit
    while True:
        unit = {"wall_s": 0.0, "peak_rss_mb": 0.0, "failed": 0,
                "layers": {}, "timeline": [["ref", pin_to_fastest_cpu()]]}
        since_ref = 0.0
        for job in jobs:
            spec = dict(job, trace=bool(trace))
            if units:
                spec.pop("samples", None)
            out = run_job(spec)
            if not out["ok"]:
                unit["failed"] += workloads.ops_per_unit([job])
                errors.append(out["error"])
                continue
            unit["timeline"] += out["timeline"]
            unit["wall_s"] += out["wall_s"]
            unit["peak_rss_mb"] = max(unit["peak_rss_mb"], out["peak_rss_mb"])
            setups.append(out["setup_s"])
            for name, value in out.get("layers", {}).items():
                unit["layers"][name] = unit["layers"].get(name, 0) + value
            if out.get("spans") and not units:
                unit.setdefault("spans", []).extend(out["spans"])
            checked.append((job, {"result": out["result"], "samples": out.get("samples")}))
            since_ref += out["wall_s"]
            if since_ref >= REF_EVERY_S:
                unit["timeline"].append(["ref", reference.point()])
                since_ref = 0.0
        if unit["timeline"][-1][0] != "ref":
            unit["timeline"].append(["ref", reference.point()])
        unit["ref_time"] = ref_time(unit["timeline"])
        units.append(unit)
        if time.perf_counter() - start >= seconds:
            break
    probe = dict(jobs[0], setup_only=True)
    if not trace and len(setups) < MIN_SETUP_SAMPLES:
        pin_to_fastest_cpu()
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        out = run_job(probe)
        if not out["ok"]:
            errors.append(out["error"])
            break
        setups.append(out["setup_s"])
    problems += check_outputs(checked, docs, recorded)

    attempted = ops * len(units)
    failed = sum(u["failed"] for u in units)
    done = [u for u in units if not u["failed"]]
    if trace:
        metrics = _layer_metrics(done)
    else:
        metrics = {
            "wall_s": _median([u["wall_s"] for u in done]),
            "ref_time": _median([u["ref_time"] for u in done]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([u["peak_rss_mb"] for u in done]),
        }
    units_table = END_TO_END if not trace else PER_LAYER
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units_table[name]}
                          for name, value in metrics.items() if value is not None}}
    raw = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "short": short, "units": units, "setups": setups, "problems": problems,
           "errors": errors, "result": result}
    return result, raw


def check_outputs(checked, docs, recorded):
    """Verdicts of every job, and the oracle on the sampled values.  Run
    after the last unit, so that sympy is not loaded while jobs are timed."""
    import checks
    problems = []
    for job, out in checked:
        where = f"{job['seed']} {'+'.join(job['ops'])}: " if job["kind"] == "transform" else ""
        problems += [where + p for p in checks.verdict_problems(job, out["result"], docs, recorded)]
        if out["samples"]:
            problems += checks.oracle_problems(job, out["samples"], docs, recorded)
    return problems


def _layer_metrics(units):
    """Median over units of each per-layer figure; shares are recomputed
    from the summed counts of each unit."""
    metrics = {}
    names = set().union(*(u["layers"] for u in units)) if units else set()
    for name in sorted(names - {"field.symconst.rational"}):
        metrics[name] = _median([u["layers"][name] for u in units if name in u["layers"]])
    if "field.symconst.new" in names:
        metrics["field.symconst.rational_share"] = _median(
            [u["layers"]["field.symconst.rational"] / u["layers"]["field.symconst.new"]
             for u in units if u["layers"].get("field.symconst.new")])
    metrics["trace.wall_s"] = _median([u["wall_s"] for u in units])
    return {name: value for name, value in metrics.items() if name in PER_LAYER}


def _write_raw(raw):
    workloads.OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if raw["trace"] else "run"
    suffix = "-short" if raw["short"] else ""
    path = workloads.OUT_DIR / f"{kind}-{raw['workload']}-seed{raw['seed']}{suffix}.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


def _summary(workload, result):
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<36} {shown:>14} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description="finsum benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="every workload at reduced size, through the same checks")
    args = parser.parse_args(argv)
    try:
        workloads.require_layout()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, raw = measure(name, args.seed, args.seconds, args.trace, args.short)
        _write_raw(raw)
        for problem in raw["problems"] + raw["errors"]:
            print(f"{name}: {problem}", file=sys.stderr)
        print(_summary(name, result))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
