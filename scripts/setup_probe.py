"""Compare the set-up time of two checkouts on one benchmark workload.

Set-up is what a benchmark worker does before its timed region: import
finsum from the checkout's ``src`` and load the documents the job needs.
This runs the first job of one unit of the workload with ``setup_only`` set,
which ``perfbench/worker.py`` answers with its ``setup_s`` alone, ``--runs``
times per side in fresh processes, alternating the sides (the parent first
on even runs), and prints per-side quartiles in milliseconds.  The last line
of its standard output is the same summary as one JSON object.

    python3 scripts/setup_probe.py --parent ../parent --change . \\
        --workload corpus [--runs 30] [--seed 0]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def probe_job(checkout, workload, seed):
    """The set-up-only form of the first job of one unit of ``workload``,
    as the checkout's ``perfbench/workloads.py`` makes it."""
    path = Path(checkout) / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("probe_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(workloads.unit_jobs(workload, seed)[0], setup_only=True)


def setup_seconds(checkout, job):
    """``setup_s`` of one fresh worker of ``checkout`` on ``job``, run as
    the benchmark runs its workers."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(Path(checkout) / "perfbench" / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=str(checkout), env=env, check=False)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not out.get("ok"):
        raise RuntimeError(f"worker in {checkout} failed: {out.get('error') or proc.stderr[-2000:]}")
    return out["setup_s"]


def probe(checkouts, job, runs, measure=setup_seconds):
    """{side: [setup seconds, ...]} over ``runs`` alternating rounds."""
    samples = {side: [] for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else tuple(reversed(SIDES)):
            samples[side].append(measure(checkouts[side], job))
    return samples


def summarize(samples):
    """Per-side median and inclusive quartiles in ms, and the change's
    median relative to the parent's."""
    out = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles([1000 * s for s in samples[side]], n=4,
                                              method="inclusive")
        out[side] = {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "iqr_ms": q3 - q1,
                     "runs": len(samples[side])}
    out["median_change_vs_parent"] = out["change"]["median_ms"] / out["parent"]["median_ms"] - 1
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("give at least two runs: quartiles need two values per side")
    job = probe_job(args.change, args.workload, args.seed)
    samples = probe({"parent": args.parent, "change": args.change}, job, args.runs)
    summary = dict(summarize(samples), workload=args.workload, seed=args.seed)
    for side in SIDES:
        row = summary[side]
        print(f"{side:<7} median {row['median_ms']:.1f} ms"
              f"  q1 {row['q1_ms']:.1f}  q3 {row['q3_ms']:.1f}  iqr {row['iqr_ms']:.1f}"
              f"  ({row['runs']} runs)")
    print(f"change vs parent median: {summary['median_change_vs_parent']:+.1%}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
