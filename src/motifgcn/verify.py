"""Verification oracles: finite-difference gradient checks and
kernel-vs-enumeration motif matrix checks."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .graph import Graph, build_adjacency
from .motifs import (
    CO_OCCURRENCE,
    EDGE_IN_INSTANCE,
    MixRecipe,
    MotifSpec,
    motif_matrix_oracle,
    triangle_motif_matrix,
    wedge_motif_matrix,
)
from .model import ModelConfig, backward, build_model, forward, regularized_loss
from .nn import OptimizerConfig

__all__ = [
    "random_graph",
    "gradcheck_fixture",
    "gradient_check",
    "oracle_check",
    "GRADCHECK_SHAPES",
]

# Every (h1, h2) combination used in the experiments.
GRADCHECK_SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1))


def random_graph(rng, n: int, p: float, feature_dim: int = 0,
                 n_classes: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) sample, optionally with random features/labels."""
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    edges = [(int(i), int(j)) for i, j in zip(*iu) if mask[i, j]]
    kwargs = {}
    if feature_dim:
        kwargs["features"] = rng.standard_normal((n, feature_dim))
    if n_classes:
        kwargs["labels"] = rng.integers(0, n_classes, size=n)
        kwargs["n_classes"] = n_classes
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), **kwargs)


def gradcheck_fixture(seed: int = 5) -> Graph:
    """Small dense-ish labeled graph for gradient checks.

    Seed 5 was picked so the graph contains triangles and wedges and the
    ReLU pre-activations sit comfortably away from zero (finite
    differences across a ReLU kink would be meaningless).
    """
    rng = np.random.default_rng(seed)
    return random_graph(rng, 12, 0.5, feature_dim=6, n_classes=3)


def gradient_check(h1: int, h2: int, graph: Graph | None = None,
                   recipe: MixRecipe | None = None, step: float = 1e-6,
                   inject_error: bool = False) -> float:
    """Max relative error between analytic and central-difference gradients.

    Dropout must be off: the loss would not be a deterministic function
    of the weights otherwise.
    """
    if graph is None:
        graph = gradcheck_fixture()
    if recipe is None:
        recipe = MixRecipe((("edge", 8.0), ("triangle", 1.0), ("wedge", 2.0)))
    config = ModelConfig(
        h1=h1, h2=h2, hidden_dim=5, recipe=recipe, seed=3,
        optimizer=OptimizerConfig(dropout_rate=0.0, weight_decay=5e-4),
    )
    if config.optimizer.dropout_rate != 0:
        raise ValueError("gradient check requires dropout disabled")
    model = build_model(config, graph)
    X, y = graph.features, graph.labels
    train_idx = np.arange(0, graph.n_nodes, 2)

    Z, tape = forward(model, X, training=False, with_tape=True)
    grads = backward(model, tape, y, train_idx)
    if inject_error:
        grads[0] = grads[0] + 1e-3  # negative-control hook

    worst = 0.0
    for W, g in zip(model.weights, grads):
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = W[ij]
            W[ij] = orig + step
            up = regularized_loss(model, forward(model, X), y, train_idx)
            W[ij] = orig - step
            down = regularized_loss(model, forward(model, X), y, train_idx)
            W[ij] = orig
            fd = (up - down) / (2 * step)
            err = abs(g[ij] - fd) / max(1.0, abs(g[ij]), abs(fd))
            worst = max(worst, float(err))
    return worst


def oracle_check(n_graphs: int = 50, max_n: int = 25, seed: int = 1,
                 semantics: str = CO_OCCURRENCE) -> dict:
    """Compare the triangle/wedge kernels against brute-force enumeration.

    Under the literal edge-in-instance semantics the wedge kernel is
    intentionally divergent on non-adjacent leaf pairs; the triangle
    kernel must agree under both readings.
    """
    if max_n > 30:
        raise ValueError("oracle check is capped at max_n <= 30")
    rng = np.random.default_rng(seed)
    mismatches = []
    wedge_divergent = 0
    for k in range(n_graphs):
        n = int(rng.integers(5, max_n + 1))
        p = float(rng.uniform(0.1, 0.5))
        g = random_graph(rng, n, p)
        A = build_adjacency(g)
        tri_kernel = triangle_motif_matrix(A).toarray()
        tri_oracle = motif_matrix_oracle(g, MotifSpec.triangle(), semantics)
        if not np.array_equal(tri_kernel, tri_oracle):
            mismatches.append({"graph": k, "motif": "triangle",
                               "coords": _first_mismatch(tri_kernel, tri_oracle)})
        wedge_kernel = wedge_motif_matrix(A).toarray()
        wedge_oracle = motif_matrix_oracle(g, MotifSpec.wedge(), semantics)
        if not np.array_equal(wedge_kernel, wedge_oracle):
            if semantics == EDGE_IN_INSTANCE:
                # Co-occurrence kernel vs literal oracle: expected to differ.
                wedge_divergent += 1
            else:
                mismatches.append({"graph": k, "motif": "wedge",
                                   "coords": _first_mismatch(wedge_kernel, wedge_oracle)})
    report = {
        "graphs_checked": n_graphs,
        "semantics": semantics,
        "mismatches": mismatches,
        "passed": not mismatches,
    }
    if semantics == EDGE_IN_INSTANCE:
        report["wedge_note"] = (
            "wedge kernel counts co-occurrence; under the literal "
            "edge-in-instance reading it is intentionally divergent on "
            f"{wedge_divergent} of {n_graphs} graphs"
        )
    return report


def _first_mismatch(a: np.ndarray, b: np.ndarray):
    bad = np.argwhere(a != b)
    i, j = bad[0]
    return {"row": int(i), "col": int(j), "kernel": float(a[i, j]),
            "oracle": float(b[i, j])}
