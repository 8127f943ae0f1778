"""Synthetic planted-partition datasets used for sanity checks and fixtures."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .graph import Graph

__all__ = ["planted_closure_dataset", "two_community_dataset", "write_generic_files"]


def two_community_dataset(n: int = 20, seed: int = 0, p_in: float = 0.8,
                          p_out: float = 0.05, feature_dim: int = 5,
                          noise: float = 0.3) -> Dataset:
    """Two planted communities with community-indicating noisy features."""
    rng = np.random.default_rng(seed)
    half = n // 2
    community = np.array([0] * half + [1] * (n - half))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if community[i] == community[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    signal = np.where(community[:, None] == 0, 1.0, -1.0)
    X = signal * np.ones((n, feature_dim)) + noise * rng.standard_normal((n, feature_dim))
    graph = Graph(n, np.array(edges), features=X, labels=community, n_classes=2)
    return Dataset(graph, f"two_community_n{n}_s{seed}")


def planted_closure_dataset(closure: float, seed: int = 0) -> Dataset:
    """900 nodes in 3 planted classes whose within-class edges close
    into triangles.

    Within each class, edges come in units on random members: with
    probability ``closure`` a unit is a closed triangle, otherwise a
    single pair, until the class holds about 3 edges per node. Cross-class
    noise adds about 1.5 edges per node. So the clustering coefficient
    rises with ``closure`` while the edge count stays about the same.
    The 16 features are weak class centres (N(0, 0.25²) entries) plus
    N(0, 1) noise. Self-loops and repeated pairs drawn are dropped
    (``Graph.from_edge_list``).
    """
    if not 0 <= closure <= 1:
        raise ValueError("closure must be in [0, 1]")
    n, n_classes = 900, 3
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    edges = []
    for cls in range(n_classes):
        members = np.flatnonzero(labels == cls)
        units = int(round(3 * members.size / (1 + 2 * closure)))
        a, b, c = rng.choice(members, size=(3, units))
        closed = rng.random(units) < closure
        edges += [(a, b), (b[closed], c[closed]), (a[closed], c[closed])]
    # Pairs drawn uniformly are cross-class with probability 1 - 1/n_classes.
    u, v = rng.integers(n, size=(2, int(round(1.5 * n * n_classes / (n_classes - 1)))))
    cross = labels[u] != labels[v]
    edges.append((u[cross], v[cross]))
    edges = np.concatenate([np.stack(pair, axis=1) for pair in edges])
    centres = 0.25 * rng.standard_normal((n_classes, 16))
    X = centres[labels] + rng.standard_normal((n, 16))
    graph = Graph.from_edge_list(n, edges, features=X, labels=labels, n_classes=n_classes)
    return Dataset(graph, f"planted_closure_c{closure:g}_s{seed}")


def write_generic_files(dataset: Dataset, directory) -> None:
    """Dump a dataset in the generic edges/features/labels fixture format."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = dataset.graph
    with open(directory / "edges.txt", "w") as fh:
        fh.write(f"# edge list for {dataset.name}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
    with open(directory / "features.csv", "w") as fh:
        for i, row in enumerate(g.features):
            fh.write(",".join([str(i)] + [repr(float(v)) for v in row]) + "\n")
    with open(directory / "labels.csv", "w") as fh:
        for i, lab in enumerate(g.labels):
            fh.write(f"{i},{int(lab)}\n")
