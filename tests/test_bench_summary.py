"""scripts/bench_summary.py: quartile summaries, the verdict digest and the
argument checks, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


def synthetic_run(scale):
    """One run's last JSON line: every end-to-end metric of two workloads."""
    metrics = {}
    for workload, base in (("corpus", 100.0), ("poly-expand", 10.0)):
        for i, metric in enumerate(bench_summary.END_TO_END):
            metrics[f"{workload}.{metric}"] = {"value": base * (i + 1) * scale,
                                               "unit": "u"}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def test_describe_two_values():
    got = bench_summary.describe([1.0, 3.0])
    assert got == {"median": 2.0, "q1": 1.5, "q3": 2.5, "iqr": 1.0, "runs": [1.0, 3.0]}


def test_summarize_two_pairs():
    parent = [synthetic_run(1.0), synthetic_run(1.2)]
    change = [synthetic_run(0.5), synthetic_run(1.3)]
    out = bench_summary.summarize(parent, change)
    assert sorted(out) == ["corpus", "poly-expand"]
    row = out["corpus"]["ref_time"]
    assert row["unit"] == "u"
    assert row["parent"]["median"] == pytest.approx(220.0)
    assert row["change"]["median"] == pytest.approx(180.0)
    assert row["median_change_vs_parent"] == pytest.approx(180.0 / 220.0 - 1)
    assert row["parent_iqr_share"] == pytest.approx(20.0 / 220.0)
    assert row["pairs_change_lower"] == 1
    assert sorted(out["poly-expand"]) == sorted(bench_summary.END_TO_END)


def test_verdict_digest_ignores_detail(tmp_path):
    reports = [{"name": "a", "expected": "equal", "actual": "equal", "matched": True,
                "detail": "first text"},
               {"name": "b", "expected": "unequal", "actual": "equal", "matched": False,
                "detail": "n=3"}]
    first = tmp_path / "first.json"
    first.write_text(json.dumps(reports))
    for r in reports:
        r["detail"] = "other text"
    second = tmp_path / "second.json"
    second.write_text(json.dumps(reports))
    digest = bench_summary.verdict_digest(first)
    assert digest == bench_summary.verdict_digest(second)
    assert digest["entries"] == 2 and digest["matched"] == 1
    reports[1]["actual"] = "unequal"
    second.write_text(json.dumps(reports))
    assert bench_summary.verdict_digest(second)["sha256"] != digest["sha256"]


def test_traced_puts_sides_together():
    parent = {"metrics": {"a.calls": {"value": 5, "unit": "count"},
                          "a.self_s": {"value": 2.0, "unit": "s"}}}
    change = {"metrics": {"a.calls": {"value": 5, "unit": "count"}}}
    assert bench_summary.traced(parent, change) == {
        "a.calls": {"unit": "count", "parent": 5, "change": 5},
        "a.self_s": {"unit": "s", "parent": 2.0, "change": None}}


def test_one_pair_is_rejected(tmp_path, capsys):
    log = tmp_path / "run.log"
    log.write_text(json.dumps(synthetic_run(1.0)) + "\n")
    argv = ["--out", str(tmp_path / "BENCH.json"), "--parent-repo", ".",
            "--change-repo", ".", "--parent-logs", str(log), "--change-logs", str(log),
            "--parent-corpus", "p.json", "--change-corpus", "c.json"]
    with pytest.raises(SystemExit) as exc:
        bench_summary.main(argv)
    assert exc.value.code == 2
    assert "at least two pairs" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
    with pytest.raises(SystemExit):
        bench_summary.main(argv + ["--parent-trace", str(log)])
    assert "both sides or for neither" in capsys.readouterr().err


def runs_of(values, key="corpus.ref_time"):
    """One run per value, the value in ``key`` and 1.0 everywhere else."""
    runs = [synthetic_run(1.0) for _ in values]
    for run, value in zip(runs, values):
        run["metrics"][key]["value"] = value
    return runs


def test_read_bounds(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "bound": 0.25}, {"name": "peak_rss_mb", "bound": 0.1}]}))
    assert bench_summary.read_bounds(path) == {"wall_s": 0.25, "peak_rss_mb": 0.1}


def test_rows_are_flagged_against_their_bounds():
    # parent median 100 with an interquartile range of 10; the change median 112
    parent = runs_of([90.0, 95.0, 100.0, 105.0, 110.0])
    change = runs_of([108.0, 110.0, 112.0, 114.0, 116.0])
    row = bench_summary.summarize(parent, change, {"ref_time": 0.2})["corpus"]["ref_time"]
    assert (row["bound"], row["within_bound"], row["resolved"]) == (0.2, True, True)
    row = bench_summary.summarize(parent, change, {"ref_time": 0.1})["corpus"]["ref_time"]
    assert (row["within_bound"], row["resolved"]) == (False, False)
    # exactly at the bound is within it; no bound, no flags
    row = bench_summary.summarize(parent, change, {"ref_time": 0.12})["corpus"]["ref_time"]
    assert row["within_bound"] is True
    assert "within_bound" not in bench_summary.summarize(parent, change)["corpus"]["ref_time"]


@pytest.mark.parametrize("change, failed, met", [
    ([80.0 + i for i in range(9)] + [200.0], (0, 0), True),   # lower in 9 of 10, gap 15 > 4.5
    ([80.0 + i for i in range(8)] + [200.0, 200.0], (0, 0), False),  # lower in 8 of 10 only
    ([94.5 + i for i in range(10)], (0, 0), False),            # lower in 10, gap 0.5 < 4.5
    ([80.0 + i for i in range(10)], (1, 1), True),             # as many failures as the parent
    ([80.0 + i for i in range(10)], (0, 1), False),            # more failures than the parent
])
def test_claim_needs_nine_of_ten_pairs_and_a_gap_past_the_range(change, failed, met):
    parent = runs_of([95.0 + i for i in range(10)])       # median 99.5, range 4.5
    row = bench_summary.summarize(parent, runs_of(change))["corpus"]["ref_time"]
    operations = {"parent": {"failed": failed[0]}, "change": {"failed": failed[1]}}
    got = bench_summary.claim(row, 10, operations)
    assert got["claim_met"] is met
    assert got["parent_iqr"] == pytest.approx(4.5)
    assert got["median_gap"] == pytest.approx(99.5 - row["change"]["median"])


def test_unknown_claim_is_rejected(tmp_path, capsys):
    logs = []
    for i in range(2):
        log = tmp_path / f"run-{i}.log"
        log.write_text(json.dumps(synthetic_run(1.0)) + "\n")
        logs.append(str(log))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [{"name": "ref_time", "bound": 0.2}]}))
    argv = ["--out", str(tmp_path / "BENCH.json"), "--parent-repo", ".",
            "--change-repo", ".", "--parent-logs", *logs, "--change-logs", *logs,
            "--parent-corpus", "p.json", "--change-corpus", "c.json",
            "--benchmark", str(bench), "--claim", "corpus.speed"]
    with pytest.raises(SystemExit) as exc:
        bench_summary.main(argv)
    assert exc.value.code == 2
    assert "--claim corpus.speed: no such workload.metric" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
