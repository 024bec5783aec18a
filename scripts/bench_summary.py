"""Summarize alternating parent/change benchmark runs into one BENCH_<label>.json.

Each run is ``python3 perfbench/run.py --workload all --seed i`` in a clean
checkout of one side; the last line of its standard output is one JSON
object.  Pair i runs seed i on both sides, the parent first when i is even.
The verdict digest is the sha256 of the ``(name, expected, actual, matched)``
fields of ``finsum corpus run --format json``, so it ignores ``detail``.

    python3 scripts/bench_summary.py --out BENCH_x.json \\
        --parent-repo ../parent --change-repo . \\
        --parent-logs parent-0.log parent-1.log ... \\
        --change-logs change-0.log change-1.log ... \\
        --parent-corpus parent-corpus.json --change-corpus change-corpus.json \\
        [--parent-trace parent-trace.log --change-trace change-trace.log] \\
        [--benchmark BENCHMARK.json] [--claim corpus.ref_time ...]

Logs are given in pair order.  Quartiles are the inclusive quartiles of
``statistics.quantiles``; every end-to-end metric is better when lower.  A
trace log is one run of the same command with ``--trace 1``; its per-layer
metrics are copied side by side.

Each end-to-end row is flagged against its ``bound`` in the benchmark
declaration, which is only read: ``within_bound`` when the change median is
at most the parent median times (1 + bound), and ``resolved`` when the
parent's interquartile range is a smaller share of its median than the
bound, so that a worsening past the bound would stand out of the noise.  A
``--claim workload.metric`` is met (``claim_met``) when the change is lower
in at least nine of every ten pairs, its median is below the parent's by
more than the parent's interquartile range, and it fails no more operations
than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

END_TO_END = ("wall_s", "ref_time", "setup_s", "peak_rss_mb")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def last_json_line(path):
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return json.loads(lines[-1])


def verdict_digest(path):
    with open(path) as fh:
        reports = json.load(fh)
    rows = [[r["name"], r["expected"], r["actual"], r["matched"]] for r in reports]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "entries": len(rows),
            "matched": sum(1 for r in rows if r[3])}


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def read_bounds(path):
    """The ``bound`` of each end-to-end metric in a benchmark declaration."""
    with open(path) as fh:
        return {metric["name"]: metric["bound"] for metric in json.load(fh)["end_to_end"]}


def summarize(parent_runs, change_runs, bounds=None):
    """Per workload and end-to-end metric: both sides' quartiles, the pair
    count where the change is lower and, for a metric in ``bounds``, the
    ``within_bound`` and ``resolved`` flags."""
    workloads = sorted({key.split(".", 1)[0] for key in parent_runs[0]["metrics"]})
    out = {}
    for workload in workloads:
        rows = {}
        for metric in END_TO_END:
            key = f"{workload}.{metric}"
            parent = [run["metrics"][key]["value"] for run in parent_runs]
            change = [run["metrics"][key]["value"] for run in change_runs]
            p, c = describe(parent), describe(change)
            row = rows[metric] = {
                "unit": parent_runs[0]["metrics"][key]["unit"],
                "parent": p,
                "change": c,
                "median_change_vs_parent": c["median"] / p["median"] - 1,
                "parent_iqr_share": p["iqr"] / p["median"],
                "pairs_change_lower": sum(cv < pv for pv, cv in zip(parent, change)),
            }
            if bounds and metric in bounds:
                bound = bounds[metric]
                row["bound"] = bound
                row["within_bound"] = c["median"] <= p["median"] * (1 + bound)
                row["resolved"] = row["parent_iqr_share"] < bound
        out[workload] = rows
    return out


def claim(row, pairs, operations):
    """Whether a row shows a gain: lower in at least nine of every ten
    pairs, a median gap wider than the parent's interquartile range, and no
    more failed operations than the parent."""
    gap = row["parent"]["median"] - row["change"]["median"]
    return {"pairs": pairs, "pairs_change_lower": row["pairs_change_lower"],
            "median_gap": gap, "parent_iqr": row["parent"]["iqr"],
            "claim_met": 10 * row["pairs_change_lower"] >= 9 * pairs
            and gap > row["parent"]["iqr"]
            and operations["change"]["failed"] <= operations["parent"]["failed"]}


def traced(parent_run, change_run):
    """Per-layer metrics of one traced run per side, side by side."""
    return {key: {"unit": entry["unit"], "parent": entry["value"],
                  "change": change_run["metrics"].get(key, {}).get("value")}
            for key, entry in sorted(parent_run["metrics"].items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent-repo", required=True)
    parser.add_argument("--change-repo", required=True)
    parser.add_argument("--parent-logs", nargs="+", required=True)
    parser.add_argument("--change-logs", nargs="+", required=True)
    parser.add_argument("--parent-corpus", required=True)
    parser.add_argument("--change-corpus", required=True)
    parser.add_argument("--parent-trace")
    parser.add_argument("--change-trace")
    parser.add_argument("--benchmark", default=str(BENCHMARK),
                        help="benchmark declaration whose end-to-end bounds are read")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD.METRIC",
                        help="an end-to-end metric the change claims to lower")
    args = parser.parse_args(argv)
    if (args.parent_trace is None) != (args.change_trace is None):
        parser.error("give a trace log for both sides or for neither")
    if len(args.parent_logs) != len(args.change_logs):
        parser.error("give one parent log and one change log per pair")
    if len(args.parent_logs) < 2:
        parser.error("give at least two pairs: quartiles need two runs per side")
    parent_runs = [last_json_line(p) for p in args.parent_logs]
    change_runs = [last_json_line(p) for p in args.change_logs]
    end_to_end = summarize(parent_runs, change_runs, read_bounds(args.benchmark))
    operations = {side: {"attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs)}
                  for side, runs in (("parent", parent_runs), ("change", change_runs))}
    claims = {}
    for key in args.claim:
        workload, _, metric = key.partition(".")
        if metric not in end_to_end.get(workload, {}):
            parser.error(f"--claim {key}: no such workload.metric")
        claims[key] = claim(end_to_end[workload][metric], len(parent_runs), operations)
    bench = {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "command": "python3 perfbench/run.py --workload all --seed i",
        "pairs": len(parent_runs),
        "order": "pair i runs seed i; the parent runs first when i is even",
        "parent": {"commit": git(args.parent_repo, "rev-parse", "HEAD"),
                   "src_tree": git(args.parent_repo, "rev-parse", "HEAD:src")},
        "change": {"commit": git(args.change_repo, "rev-parse", "HEAD"),
                   "src_tree": git(args.change_repo, "rev-parse", "HEAD:src")},
        "runs_correct": {"parent": all(r["correct"] for r in parent_runs),
                         "change": all(r["correct"] for r in change_runs)},
        "operations": operations,
        "end_to_end": end_to_end,
        "verdict_digest": {"parent": verdict_digest(args.parent_corpus),
                           "change": verdict_digest(args.change_corpus)},
    }
    if claims:
        bench["claims"] = claims
    if args.parent_trace:
        bench["per_layer_traced"] = traced(last_json_line(args.parent_trace),
                                           last_json_line(args.change_trace))
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
