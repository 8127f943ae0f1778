"""Seeded synthetic inputs with the shapes of the paper's datasets.

Two kinds of graph are made, both homophilous so that accuracy means
something:

* citation shapes (Citeseer, Pubmed): exact published node, edge and
  feature counts and feature density, written in the planetoid 8-file
  layout so the program reads them with ``data.load_planetoid``;
* a heavy-tailed degree-corrected stochastic block model, returned as
  plain arrays for the benchmark to build a ``graph.Graph`` from.

Everything here is numpy only and depends on the seed alone, so the
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

PLANETOID_TEST_NODES = 1000
PLANETOID_TRAIN_PER_CLASS = 20


@dataclass(frozen=True)
class Shape:
    nodes: int
    edges: int
    features: int
    classes: int
    density: float       # share of nonzero feature entries
    homophily: float     # share of edges drawn inside a class
    degree_tail: float   # Pareto shape of the degree propensities
    topic_share: float   # share of a node's features drawn from its class topic


# Node, edge and feature counts are the published ones; edge counts match
# data.EXPECTED_EDGES so load_planetoid raises no warning.
CITESEER = Shape(3327, 4732, 3703, 6, 0.0086, 0.75, 3.0, 0.4)
PUBMED = Shape(19717, 44338, 500, 3, 0.10, 0.80, 3.5, 0.5)
POWERLAW = Shape(50000, 250000, 32, 4, 1.0, 0.80, 4.0, 0.0)


def _propensities(rng, shape: Shape) -> np.ndarray:
    """Pareto propensities at evenly spaced quantiles, shuffled over nodes.

    Fixed quantiles keep the hub sizes, and so the motif work, the same
    for every seed; only which nodes are hubs changes.
    """
    q = np.arange(1, shape.nodes + 1) / (shape.nodes + 1)
    return rng.permutation(q ** (-1.0 / (shape.degree_tail - 1.0)))


def _edges(rng, shape: Shape, labels: np.ndarray) -> np.ndarray:
    """Exactly shape.edges distinct undirected pairs (u < v), no self-loops.

    Each endpoint is drawn in proportion to its propensity; with
    probability ``homophily`` the second endpoint comes from the first
    one's class.
    """
    theta = _propensities(rng, shape)
    p_all = theta / theta.sum()
    members = [np.flatnonzero(labels == c) for c in range(shape.classes)]
    p_in = [theta[m] / theta[m].sum() for m in members]
    pairs = np.empty((0, 2), dtype=np.int64)
    while pairs.shape[0] < shape.edges:
        k = int(1.3 * (shape.edges - pairs.shape[0])) + 64
        u = rng.choice(shape.nodes, size=k, p=p_all)
        v = rng.choice(shape.nodes, size=k, p=p_all)
        inside = rng.random(k) < shape.homophily
        for c in range(shape.classes):
            sel = np.flatnonzero(inside & (labels[u] == c))
            v[sel] = rng.choice(members[c], size=sel.size, p=p_in[c])
        cand = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
        cand = np.concatenate([pairs, cand[cand[:, 0] != cand[:, 1]]])
        # Keep first occurrences in draw order so the result does not
        # depend on how many rounds it took.
        _, first = np.unique(cand, axis=0, return_index=True)
        pairs = cand[np.sort(first)]
    return pairs[: shape.edges]


def _labels(rng, shape: Shape) -> np.ndarray:
    """Balanced labelled prefix (the planetoid train rows), random rest."""
    head = np.repeat(np.arange(shape.classes), PLANETOID_TRAIN_PER_CLASS)
    rest = rng.integers(0, shape.classes, shape.nodes - head.size)
    return np.concatenate([rng.permutation(head), rest]).astype(np.int64)


def _sparse_features(rng, shape: Shape, labels: np.ndarray) -> sp.csr_matrix:
    """Binary bag-of-words rows; a share of each row's words comes from
    the feature block ("topic") of the node's class."""
    n, t = shape.nodes, shape.features
    # Draws collide; -log(1 - density) draws per column give the target
    # density after duplicates are merged.
    per_row = np.maximum(rng.poisson(-np.log1p(-shape.density) * t, n), 1)
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, t, rows.size)
    topic = rng.random(rows.size) < shape.topic_share
    block = t // shape.classes
    cols[topic] = labels[rows[topic]] * block + rng.integers(0, block, topic.sum())
    X = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, t))
    X.sum_duplicates()
    X.data[:] = 1.0
    return X


def _describe(shape_name: str, n: int, edges: np.ndarray, n_features: int,
              feature_nnz: int) -> dict:
    deg = np.bincount(edges.ravel(), minlength=n)
    return {
        "shape": shape_name,
        "nodes": n,
        "edges": int(edges.shape[0]),
        "d_max": int(deg.max()),
        "features": n_features,
        "feature_density": feature_nnz / (n * n_features),
    }


def write_planetoid(directory, name: str, shape: Shape, seed: int) -> dict:
    """Write ``ind.<name>.*`` for a citation-shaped graph; return its
    realised shape.

    Node order follows the planetoid convention: the first
    classes x 20 nodes are the training rows, the last 1000 nodes are the
    test set, listed in shuffled order in ``test.index``.
    """
    rng = np.random.default_rng(seed)
    labels = _labels(rng, shape)
    edges = _edges(rng, shape, labels)
    X = _sparse_features(rng, shape, labels)
    onehot = np.eye(shape.classes)[labels]
    n_train = shape.classes * PLANETOID_TRAIN_PER_CLASS
    n_rest = shape.nodes - PLANETOID_TEST_NODES
    test_idx = n_rest + rng.permutation(PLANETOID_TEST_NODES)
    adjacency = {v: [] for v in range(shape.nodes)}
    for u, v in edges.tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    parts = {
        "x": X[:n_train], "y": onehot[:n_train],
        "allx": X[:n_rest], "ally": onehot[:n_rest],
        "tx": X[test_idx], "ty": onehot[test_idx],
        "graph": adjacency,
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for part, obj in parts.items():
        with open(directory / f"ind.{name}.{part}", "wb") as fh:
            pickle.dump(obj, fh)
    (directory / f"ind.{name}.test.index").write_text(
        "\n".join(str(int(i)) for i in test_idx) + "\n")
    return _describe(name, shape.nodes, edges, shape.features, X.nnz)


def powerlaw_graph(seed: int, shape: Shape = POWERLAW):
    """Degree-corrected SBM with dense class-correlated features.

    Returns (edges, features, labels, realised-shape dict).
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, shape.classes, shape.nodes).astype(np.int64)
    edges = _edges(rng, shape, labels)
    centers = rng.standard_normal((shape.classes, shape.features))
    X = 0.5 * centers[labels] + rng.standard_normal((shape.nodes, shape.features))
    return edges, X, labels, _describe("powerlaw", shape.nodes, edges,
                                       shape.features, int(np.count_nonzero(X)))
