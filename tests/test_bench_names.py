"""The functions the benchmark wraps still exist under the names it uses,
and the benchmark's sequence still calls each of them, so that a refactor
which drops one fails here and not only in a traced benchmark run."""

import dataclasses
import importlib.util
import sys
import threading
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


def test_traced_benchmark_sequence_calls_every_wrapped_function(tmp_path, monkeypatch):
    # A traced run reports no per-module metric for a wrapped function
    # that is never called, so its output would lack that metric. The
    # sequence is citeseer_train's: a CSR-feature Planetoid-layout set-up,
    # motif-stats and one train, on a smaller graph with the published
    # edge count, so loading warns of nothing.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = _load("run"), _load("spans")
    import generate
    import workloads

    workload = workloads.CiteseerTrain(PERFBENCH.parent)
    workload.shape = dataclasses.replace(generate.CITESEER, nodes=1700, features=100,
                                         density=0.05)
    workload.prepare(1, tmp_path)
    with spans.Tracer() as tracer:
        run.wrap_layers(tracer, motifgcn)
        state, warned = workloads.setup_with_warnings(workload, tracer)
        workloads.motif_stats(state.dataset.graph)
        workload.op(state, 1)
    assert warned is None
    assert tracer.missing == []
    assert [name for name, n in tracer.calls.items() if n == 0] == []


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


def test_traced_train_counts_the_validation_thread(monkeypatch):
    # train validates on the calling thread after each Adam step. The
    # tracer must record one evaluation pass per epoch, and one for the
    # test split, all on this thread.
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    run, spans = _load("run"), _load("spans")
    g = random_graph(np.random.default_rng(2), 300, 0.01, feature_dim=8, n_classes=3)
    dataset = Dataset(g, "random")
    splits = make_splits(dataset, SplitSpec(per_class_train=5, val_fraction=0.2,
                                            test_fraction=0.4), 1)
    config = ModelConfig(recipe=MixRecipe.parse("edge:8,triangle:1,wedge:2"), max_epochs=6)
    with spans.Tracer() as tracer:
        run.wrap_layers(tracer, motifgcn)
        _, report = train(config, dataset, splits)
    evals = [s for s in tracer.spans if s.name == "model.eval"]
    assert len(evals) == report.epochs_run + 1
    assert {s.thread for s in evals} == {threading.get_ident()}


def test_protocol_trains_each_seed_through_the_module(monkeypatch):
    # pubmed_protocol reads every run of a run_protocol call from the
    # spans of the wrapped model.train, so each seed must still be one
    # call through that attribute, on whichever thread runs it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    g = random_graph(np.random.default_rng(2), 120, 0.03, feature_dim=8, n_classes=3)
    dataset = Dataset(g, "random")
    splits = make_splits(dataset, SplitSpec(per_class_train=5, val_fraction=0.2,
                                            test_fraction=0.4), 1)
    config = ModelConfig(recipe=MixRecipe.parse("edge:8,triangle:1,wedge:2"), max_epochs=3,
                         seed=40)
    with run.recorder() as tracer:
        result = motifgcn.model.run_protocol(config, dataset, splits, n_runs=3, threads=2)
    runs = [s for s in tracer.spans if s.name == "model.train"]
    assert tracer.calls == {"motifgcn.model.train": 3}
    assert sorted(r.counts["seed"] for r in runs) == [40, 41, 42]
    by_seed = sorted(runs, key=lambda r: r.counts["seed"])
    assert [r.counts["test_accuracy"] for r in by_seed] == result["accuracies"]
