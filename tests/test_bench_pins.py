"""The benchmark's pins on the engine: perfbench/trace_hooks.py wraps engine
functions by name, and perfbench/worker.py calls some directly, so deleting
one of those names breaks the benchmark.  This installs and removes the
tracer, which looks up every name it wraps, and runs a short traced unit of
each workload, whose per-layer metrics depend on what the engine builds."""

import importlib.util
import os
from fractions import Fraction
from pathlib import Path

import pytest

from finsum import beta, cli, field

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A module of perfbench/, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_hooks = _load("trace_hooks")


def test_tracer_finds_every_pinned_name():
    originals = (cli.main, field.SymConst.__dict__["__init__"], Fraction.__dict__["__new__"])
    tracer = trace_hooks.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (cli.main, field.SymConst.__dict__["__init__"], Fraction.__dict__["__new__"]) == originals
    assert callable(beta.from_model)


@pytest.mark.parametrize("workload", ["corpus", "poly-expand", "derive-grid"])
def test_short_traced_unit_reports_every_layer_metric(workload):
    """A traced run reports all of ``run.PER_LAYER``: a metric that a
    workload's engine path stops feeding (say, no SymConst built, so no
    ``field.symconst.rational_share``) leaves a malformed benchmark result."""
    run = _load("run")
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        result, raw = run.measure(workload, seed=2, seconds=0, trace=1, short=True)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)   # measure pins this process to one CPU
    assert result["correct"] and result["failed"] == 0, raw["problems"] + raw["errors"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
