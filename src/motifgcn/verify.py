"""Verification oracles: finite-difference gradient checks and
kernel-vs-brute-force motif matrix checks."""

from __future__ import annotations

import numpy as np

from .graph import Graph, build_adjacency
from .motifs import MixRecipe, motif_matrix_oracle, triangle_motif_matrix, wedge_motif_matrix
from .model import (ModelConfig, Plan, backward, build_model, fit_plan, forward,
                    regularized_loss)

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
# Dropout stays on, so the gradient through each dropout mask is checked
# too. Every pass draws its masks from a fresh generator of one seed.
GRADCHECK_DROPOUT = 0.3
GRADCHECK_MASK_SEED = 11


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
    compute only the rows the loss reads, from X sliced to the rows they
    read; the finite differences come from the full forward pass. Both
    train with dropout (``GRADCHECK_DROPOUT``), and every pass draws from
    a fresh generator seeded with ``GRADCHECK_MASK_SEED``: it drops the
    same values in each, so the loss is a deterministic function of the
    weights.
    """
    if graph is None:
        graph = gradcheck_fixture()
    config = ModelConfig(h1=h1, h2=h2, hidden_dim=5, recipe=GRADCHECK_RECIPE,
                         dropout=GRADCHECK_DROPOUT, seed=3)
    model = build_model(config, graph)
    X, y = graph.features, graph.labels
    train_idx = np.arange(0, graph.n_nodes, 2)

    def loss(plan=Plan(), H=X):
        rng = np.random.default_rng(GRADCHECK_MASK_SEED)
        Z, tape = forward(model, H, training=True, rng=rng, with_tape=True, plan=plan)
        return regularized_loss(model, Z, y, train_idx), tape

    fit = fit_plan(model, train_idx, X)
    grads = backward(model, loss(fit, fit.X)[1], y, train_idx, fit.grad_operators)

    worst = 0.0
    for W, g in zip(model.weights, grads):
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = W[ij]
            W[ij] = orig + GRADCHECK_STEP
            up = loss()[0]
            W[ij] = orig - GRADCHECK_STEP
            down = loss()[0]
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
