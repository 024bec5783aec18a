"""The benchmark's pins on the engine: perfbench/trace_hooks.py wraps engine
functions by name, and perfbench/worker.py calls some directly, so deleting
one of those names breaks the benchmark.  This installs and removes the
tracer, which looks up every name it wraps."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from finsum import beta, cli, field

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "trace_hooks.py"
_SPEC = importlib.util.spec_from_file_location("trace_hooks", _PATH)
trace_hooks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_hooks)


def test_tracer_finds_every_pinned_name():
    originals = (cli.main, field.SymConst.__dict__["__init__"], Fraction.__dict__["__new__"])
    tracer = trace_hooks.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (cli.main, field.SymConst.__dict__["__init__"], Fraction.__dict__["__new__"]) == originals
    assert callable(beta.from_model)
