"""The functions the benchmark wraps still exist under the names it uses,
so that a refactor which drops one fails here and not only in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

import motifgcn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wraps_no_missing_name():
    run, spans = _load("run"), _load("spans")
    with spans.Tracer() as tracer:
        run.wrap_layers(tracer, motifgcn)
    assert tracer.missing == []
