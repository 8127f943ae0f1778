"""Verification oracles: finite-difference gradient checks and
kernel-vs-brute-force motif matrix checks."""

from __future__ import annotations

import numpy as np

from .graph import Graph, build_adjacency
from .motifs import MixRecipe, motif_matrix_oracle, triangle_motif_matrix, wedge_motif_matrix
from .model import ModelConfig, backward, build_model, fit_operators, forward, regularized_loss

__all__ = [
    "random_graph",
    "gradcheck_fixture",
    "gradient_check",
    "oracle_check",
    "GRADCHECK_SHAPES",
]

# Every (h1, h2) combination used in the experiments.
GRADCHECK_SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1))
# All three motif sources, so every mix component's gradient is checked.
GRADCHECK_RECIPE = MixRecipe((("edge", 8.0), ("triangle", 1.0), ("wedge", 2.0)))
GRADCHECK_STEP = 1e-6  # central-difference step
# Picked so the fixture graph contains triangles and wedges and the ReLU
# pre-activations sit comfortably away from zero (finite differences
# across a ReLU kink would be meaningless).
GRADCHECK_FIXTURE_SEED = 5


def random_graph(rng, n: int, p: float, feature_dim: int = 0,
                 n_classes: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) sample, optionally with random features/labels."""
    edges = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
    kwargs = {}
    if feature_dim:
        kwargs["features"] = rng.standard_normal((n, feature_dim))
    if n_classes:
        kwargs["labels"] = rng.integers(0, n_classes, size=n)
        kwargs["n_classes"] = n_classes
    return Graph(n, edges, **kwargs)


def gradcheck_fixture() -> Graph:
    """Small dense-ish labeled graph for gradient checks."""
    rng = np.random.default_rng(GRADCHECK_FIXTURE_SEED)
    return random_graph(rng, 12, 0.5, feature_dim=6, n_classes=3)


def gradient_check(h1: int, h2: int, graph: Graph | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    The analytic gradients come from the passes ``train`` runs, which
    compute only the rows the loss reads; the finite differences come
    from the full forward pass. Dropout must be off: the loss would not
    be a deterministic function of the weights otherwise.
    """
    if graph is None:
        graph = gradcheck_fixture()
    config = ModelConfig(h1=h1, h2=h2, hidden_dim=5, recipe=GRADCHECK_RECIPE,
                         dropout=0.0, seed=3)
    model = build_model(config, graph)
    X, y = graph.features, graph.labels
    train_idx = np.arange(0, graph.n_nodes, 2)

    fit_ops, grad_ops = fit_operators(model, train_idx)
    _, tape = forward(model, X, training=False, with_tape=True, operators=fit_ops)
    grads = backward(model, tape, y, train_idx, grad_ops)

    worst = 0.0
    for W, g in zip(model.weights, grads):
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = W[ij]
            W[ij] = orig + GRADCHECK_STEP
            up = regularized_loss(model, forward(model, X), y, train_idx)
            W[ij] = orig - GRADCHECK_STEP
            down = regularized_loss(model, forward(model, X), y, train_idx)
            W[ij] = orig
            fd = (up - down) / (2 * GRADCHECK_STEP)
            err = abs(g[ij] - fd) / max(1.0, abs(g[ij]), abs(fd))
            worst = max(worst, float(err))
    return worst


def oracle_check(*, n_graphs: int, max_n: int, seed: int) -> dict:
    """Compare the triangle/wedge kernels against the brute-force oracle
    on random graphs drawn from ``seed``."""
    if max_n > 30:
        raise ValueError("oracle check is capped at max_n <= 30")
    rng = np.random.default_rng(seed)
    mismatches = []
    for k in range(n_graphs):
        n = int(rng.integers(5, max_n + 1))
        p = float(rng.uniform(0.1, 0.5))
        g = random_graph(rng, n, p)
        A = build_adjacency(g)
        for motif, kernel in (("triangle", triangle_motif_matrix),
                              ("wedge", wedge_motif_matrix)):
            fast = kernel(A).toarray()
            slow = motif_matrix_oracle(g, motif)
            if not np.array_equal(fast, slow):
                mismatches.append({"graph": k, "motif": motif,
                                   "coords": _first_mismatch(fast, slow)})
    return {
        "graphs_checked": n_graphs,
        "mismatches": mismatches,
        "passed": not mismatches,
    }


def _first_mismatch(a: np.ndarray, b: np.ndarray):
    bad = np.argwhere(a != b)
    i, j = bad[0]
    return {"row": int(i), "col": int(j), "kernel": float(a[i, j]),
            "oracle": float(b[i, j])}
