"""scripts/setup_probe.py: alternation, quartiles and the worker round trip,
on stand-in checkouts whose worker reports a fixed set-up time."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "setup_probe.py"
_SPEC = importlib.util.spec_from_file_location("setup_probe", _PATH)
setup_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(setup_probe)


def fake_checkout(tmp_path, name, setup_s):
    """A directory whose perfbench/worker.py answers a setup-only job."""
    worker = tmp_path / name / "perfbench" / "worker.py"
    worker.parent.mkdir(parents=True)
    worker.write_text(
        "import json, sys\n"
        "job = json.loads(sys.stdin.read())\n"
        f"print(json.dumps({{'ok': job.get('setup_only') is True, 'setup_s': {setup_s}}}))\n")
    return worker.parent.parent


def test_probe_alternates_sides():
    calls = []

    def measure(checkout, job):
        calls.append(checkout)
        return 0.1
    samples = setup_probe.probe({"parent": "p", "change": "c"}, {}, 3, measure)
    assert calls == ["p", "c", "c", "p", "p", "c"]
    assert samples == {"parent": [0.1] * 3, "change": [0.1] * 3}


def test_summarize_quartiles_in_ms():
    out = setup_probe.summarize({"parent": [0.1, 0.2, 0.3], "change": [0.05, 0.1, 0.15]})
    assert out["parent"]["median_ms"] == pytest.approx(200.0)
    assert out["parent"]["q1_ms"] == pytest.approx(150.0)
    assert out["parent"]["iqr_ms"] == pytest.approx(100.0)
    assert out["change"]["runs"] == 3
    assert out["median_change_vs_parent"] == pytest.approx(-0.5)


def test_worker_round_trip(tmp_path, capsys, monkeypatch):
    parent = fake_checkout(tmp_path, "parent", 0.2)
    change = fake_checkout(tmp_path, "change", 0.15)
    monkeypatch.setattr(setup_probe, "probe_job", lambda checkout, workload, seed: {
        "kind": "corpus", "setup_only": True})
    setup_probe.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "corpus", "--runs", "2"])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["parent"]["median_ms"] == pytest.approx(200.0)
    assert summary["median_change_vs_parent"] == pytest.approx(-0.25)
    assert summary["workload"] == "corpus"


def test_failed_worker_is_an_error(tmp_path):
    bad = fake_checkout(tmp_path, "bad", 0.1)
    (bad / "perfbench" / "worker.py").write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(RuntimeError, match="failed"):
        setup_probe.setup_seconds(bad, {"setup_only": True})


def test_probe_job_is_the_first_job_set_up_only():
    job = setup_probe.probe_job(_PATH.parent.parent, "derive-grid", 0)
    assert job["setup_only"] is True
    assert job["kind"] == "transform"


def test_one_run_is_rejected():
    with pytest.raises(SystemExit):
        setup_probe.main(["--parent", ".", "--change", ".", "--workload", "corpus",
                          "--runs", "1"])
