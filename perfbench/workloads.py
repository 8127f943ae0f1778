"""The three benchmark workloads and the checks on their outputs.

Each workload is chosen so that one module likely to be optimised
does most of the work in it and little in another:

* ``citeseer_train``: wide sparse input; densified features, dense
  dropout and the layer-0 input gradient dominate, the mixed matrix is
  tiny.
* ``pubmed_protocol``: the only concurrent workload, ``run_protocol``
  with two threads; exposes Python threads oversubscribing BLAS threads.
* ``powerlaw_motif``: heavy-tailed graph with narrow features; the motif
  kernels, normalization and mixing dominate set-up and sparse products
  over the mixed matrix dominate each epoch.

A workload defines its set-up (generated inputs to a model ready to
train) and its operation (a ``train`` call, or a ``run_protocol`` call
for ``pubmed_protocol``); every workload also runs the ``motif-stats``
sequence. The program is reached only through module attributes, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import generate
from motifgcn import data, graph, model, motifs
from motifgcn.config import RunConfig

ACCURACY_FLOOR = 0.5    # well above chance (at most 1/3) for every workload
SYMMETRY_RTOL = 1e-12


@dataclasses.dataclass
class State:
    """Everything set-up produces: a model ready to train and its inputs."""

    dataset: object
    splits: object
    config: object
    mixed: object
    model: object


class Workload:
    name = ""
    why = ""
    runs_per_op = 1
    threads = 1

    def __init__(self, root: Path):
        self.root = root

    def prepare(self, seed: int, workdir: Path) -> dict:
        """Generate inputs; returns the realised input shape."""
        raise NotImplementedError

    def setup(self, tracer) -> State:
        raise NotImplementedError

    def train_one(self, state: State, seed: int):
        cfg = dataclasses.replace(state.config, seed=seed)
        return model.train(cfg, state.dataset, state.splits, mixed=state.mixed)

    def op(self, state: State, first_seed: int):
        """One measured operation: training runs seeded from first_seed."""
        return self.train_one(state, first_seed)

    def _finish_setup(self, dataset, splits, config) -> State:
        mixed = motifs.mix_matrices(config.recipe, dataset.graph)
        built = model.build_model(config, dataset.graph, mixed=mixed)
        return State(dataset, splits, config, mixed, built)


class _Citation(Workload):
    shape = None
    max_epochs = 0

    def prepare(self, seed, workdir):
        self.directory = workdir
        info = generate.write_planetoid(workdir, self.dataset_name, self.shape, seed)
        cfg = RunConfig.from_file(self.root / "configs" / f"{self.dataset_name}.conf")
        cfg.apply_overrides({"max_epochs": self.max_epochs})
        self.config = cfg.model_config()
        return info

    def setup(self, tracer):
        dataset, splits = data.load_planetoid(self.directory, self.dataset_name)
        return self._finish_setup(dataset, splits, self.config)


class CiteseerTrain(_Citation):
    name = "citeseer_train"
    dataset_name = "citeseer"
    shape = generate.CITESEER
    # Early stopping stays on (patience 10) but does not trigger this early,
    # so every run does the same work.
    max_epochs = 20
    why = ("Citeseer shape, 3703 sparse features, sequential train: dense input, "
           "dropout and layer-0 backward dominate; stresses the input path, "
           "bypasses the motif kernels (mix is tiny)")


class PubmedProtocol(_Citation):
    name = "pubmed_protocol"
    dataset_name = "pubmed"
    shape = generate.PUBMED
    max_epochs = 10
    runs_per_op = 4
    threads = 2
    why = ("Pubmed shape, run_protocol with 2 threads over 4 seeds sharing one "
           "mixed matrix: the only concurrent workload, exposes BLAS thread "
           "oversubscription")

    def op(self, state, first_seed):
        cfg = dataclasses.replace(state.config, seed=first_seed)
        return model.run_protocol(cfg, state.dataset, state.splits,
                                  self.runs_per_op, threads=self.threads)


class PowerlawMotif(Workload):
    name = "powerlaw_motif"
    why = ("50k-node heavy-tailed graph, 32 features, wedge nnz ~28x edges: motif "
           "kernels and mixing dominate set-up, spmm dominates epochs; bypasses "
           "the dense input path")

    def prepare(self, seed, workdir):
        self.edges, self.features, self.labels, info = generate.powerlaw_graph(seed)
        self.seed = seed
        # Patience equals max_epochs, so early stopping is off. The raised
        # learning rate makes five epochs reach a stable accuracy.
        cfg = RunConfig(recipe="edge:8,triangle:1,wedge:2", h1=2, h2=1,
                        max_epochs=5, patience=5, learning_rate=0.1)
        cfg.validate()
        self.config = cfg.model_config()
        return info

    def setup(self, tracer):
        with tracer.span("graph.build"):
            g = graph.Graph(self.labels.size, self.edges, features=self.features,
                            labels=self.labels, n_classes=generate.POWERLAW.classes)
        dataset = data.Dataset(g, "powerlaw")
        splits = data.make_splits(dataset, data.SplitSpec(), self.seed)
        return self._finish_setup(dataset, splits, self.config)


WORKLOADS = {w.name: w for w in (CiteseerTrain, PubmedProtocol, PowerlawMotif)}


def motif_stats(g) -> dict:
    """The ``motif-stats`` command's sequence, through the public API."""
    A = graph.build_adjacency(g)
    tri = motifs.triangle_motif_matrix(A)
    wedge = motifs.wedge_motif_matrix(A)
    return {
        "edges": g.n_edges,
        "d_max": graph.max_degree(g),
        "triangles": motifs.triangle_count(g),
        "wedges": motifs.wedge_count(g),
        "clustering": motifs.clustering_coefficient(g),
        "nnz_triangle": tri.nnz,
        "nnz_wedge": wedge.nnz,
    }


# -- output checks: each returns None when the output is correct, else why


def as_csr(m) -> sp.csr_matrix:
    """The program's matrix type as scipy CSR (accepts scipy input too)."""
    return m.tocsr() if sp.issparse(m) else m.to_scipy()


def check_mixed(mixed) -> str | None:
    M = as_csr(mixed)
    if not np.isfinite(M.data).all():
        return "mixed matrix has non-finite entries"
    diff = abs(M - M.T)
    scale = abs(M).max() if M.nnz else 0.0
    if diff.nnz and diff.max() > SYMMETRY_RTOL * scale:
        return f"mixed matrix is not symmetric (max |M - M^T| = {diff.max():.3g})"
    return None


def check_wedge_bound(stats: dict) -> str | None:
    bound = 2 * stats["edges"] * stats["d_max"]
    if stats["nnz_wedge"] > bound:
        return f"wedge nnz {stats['nnz_wedge']} exceeds 2|E|d_max = {bound}"
    return None


def check_run(run: dict) -> str | None:
    if not run["losses_finite"]:
        return f"seed {run['seed']}: non-finite loss"
    if not run["test_accuracy"] > ACCURACY_FLOOR:
        return (f"seed {run['seed']}: test accuracy {run['test_accuracy']:.4f} "
                f"not above {ACCURACY_FLOOR}")
    return None


def train_outcome(arguments: dict, result) -> dict:
    """Counts kept on each ``model.train`` span."""
    report = result[1]
    finite = all(np.isfinite(report.train_losses)) and all(np.isfinite(report.val_losses))
    return {
        "seed": arguments["config"].seed,
        "epochs_run": report.epochs_run,
        "test_accuracy": report.test_accuracy,
        "losses_finite": int(finite),
    }


def setup_with_warnings(workload: Workload, tracer):
    """Run set-up; a warning (such as an edge-count mismatch) is a failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = workload.setup(tracer)
    problem = "; ".join(str(w.message) for w in caught) or None
    return state, problem
