"""The functions the benchmark wraps still exist under the names it uses,
so that a refactor which drops one fails here and not only in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import motifgcn
from motifgcn import motifs
from motifgcn.data import Dataset, SplitSpec, make_splits
from motifgcn.model import ModelConfig, train
from motifgcn.motifs import MixRecipe
from motifgcn.verify import random_graph

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


def test_traced_train_counts_every_product(monkeypatch):
    # The tracer counts each nn.spmm call's flops from its operator's nnz,
    # so an operator without nnz would fail a traced benchmark run. The
    # restricted products must count fewer flops than the full path (a
    # negative FULL_FRACTION makes every restriction fall back to S).
    run, spans = _load("run"), _load("spans")
    g = random_graph(np.random.default_rng(2), 300, 0.01, feature_dim=8, n_classes=3)
    dataset = Dataset(g, "random")
    splits = make_splits(dataset, SplitSpec(per_class_train=5, val_fraction=0.2,
                                            test_fraction=0.4), 1)
    config = ModelConfig(recipe=MixRecipe.parse("edge:8,triangle:1,wedge:2"), max_epochs=3)
    flops = []
    for fraction in (motifs.FULL_FRACTION, -1.0):
        monkeypatch.setattr(motifs, "FULL_FRACTION", fraction)
        with spans.Tracer() as tracer:
            run.wrap_layers(tracer, motifgcn)
            _, report = train(config, dataset, splits)
        products = [s for s in tracer.spans if s.name == "nn.spmm"]
        assert products and all("flops" in s.counts for s in products)
        assert tracer.missing == []
        flops.append(sum(s.counts["flops"] for s in products) / report.epochs_run)
    assert flops[0] < flops[1]
