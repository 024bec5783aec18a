"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q

The output checks must reject corrupted results, and the short mode must run
every workload, at reduced size, through the same checks.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DOCS = workloads.load_documents()
RECORDED = workloads.load_recorded()


@pytest.fixture(scope="module")
def corpus_job():
    job = workloads.unit_jobs("corpus", seed=1, short=True)[0]
    out = run.run_job(job)
    assert out["ok"], out.get("error")
    return job, out


@pytest.fixture(scope="module")
def transform_job():
    job = next(j for j in workloads.unit_jobs("derive-grid", seed=1, short=True)
               if j["ops"] == ["beta", "dds"])
    out = run.run_job(job)
    assert out["ok"], out.get("error")
    return job, out


def test_engine_outputs_pass_the_checks(corpus_job, transform_job):
    for job, out in (corpus_job, transform_job):
        assert checks.verdict_problems(job, out["result"], DOCS, RECORDED) == []
        assert checks.oracle_problems(job, out["samples"], DOCS, RECORDED) == []


def test_perturbed_closed_side_value_is_rejected(corpus_job):
    job, out = corpus_job
    samples = copy.deepcopy(out["samples"])
    sample = next(s for s in samples["closed"] if s["entry"] == "dattoli-r1")
    sample["lhs"] += " + 1/1000"
    problems = checks.oracle_problems(job, samples, DOCS, RECORDED)
    assert any("dattoli-r1" in p and "lhs" in p for p in problems)


def test_perturbed_polynomial_coefficient_is_rejected(corpus_job):
    job, out = corpus_job
    samples = copy.deepcopy(out["samples"])
    samples["poly"][0]["rhs"][1] += " + L"
    assert checks.oracle_problems(job, samples, DOCS, RECORDED)


def test_perturbed_transform_value_is_rejected(transform_job):
    job, out = transform_job
    samples = copy.deepcopy(out["samples"])
    samples["transform"][0]["values"][0]["rhs"] += " - P"
    problems = checks.oracle_problems(job, samples, DOCS, RECORDED)
    assert any("rhs" in p for p in problems)


def test_flipped_verdict_is_rejected(corpus_job):
    job, out = corpus_job
    result = copy.deepcopy(out["result"])
    report = next(r for r in result["reports"] if r["name"] == "dattoli-r1")
    report["actual"] = "unequal"
    assert any("dattoli-r1" in p for p in checks.verdict_problems(job, result, DOCS, RECORDED))


def test_check_entry_is_held_to_its_recorded_verdict(corpus_job):
    """The engine matches a ``recorded`` entry whatever its verdict; the
    benchmark does not."""
    job, out = corpus_job
    result = copy.deepcopy(out["result"])
    report = next(r for r in result["reports"] if r["name"] == "sqharmonic-full-r")
    assert report["matched"]
    report["actual"] = "equal"
    assert any("sqharmonic-full-r" in p for p in checks.verdict_problems(job, result, DOCS, RECORDED))
    samples = copy.deepcopy(out["samples"])
    check = next(s for s in samples["check"] if s["entry"] == "sqharmonic-full-r")
    check["per_n"] = [[n, True] for n, _ in check["per_n"]]
    assert any("recorded unequal" in p for p in checks.oracle_problems(job, samples, DOCS, RECORDED))


def test_transform_with_missing_points_is_rejected(transform_job):
    job, out = transform_job
    result = copy.deepcopy(out["result"])
    result["outputs"][0]["points"] -= 1
    assert checks.verdict_problems(job, result, DOCS, RECORDED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_mode_runs_every_workload(workload):
    result, raw = run.measure(workload, seed=2, seconds=0, trace=0, short=True)
    assert raw["problems"] == [] and raw["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_short_traced_run_reports_every_layer():
    result, raw = run.measure("corpus", seed=2, seconds=0, trace=1, short=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    again, _ = run.measure("corpus", seed=2, seconds=0, trace=1, short=True)
    counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    assert {n: result["metrics"][n] for n in counts} == {n: again["metrics"][n] for n in counts}


def test_benchmark_json_names_the_metrics_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
