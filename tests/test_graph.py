import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.graph import (
    Graph,
    GraphError,
    build_adjacency,
    degree,
    freeze_csr,
    max_degree,
)
from motifgcn.verify import random_graph


def test_k3_adjacency(k3):
    A = build_adjacency(k3)
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(A.toarray(), expected)
    assert A.nnz == 6


def test_empty_graph_adjacency():
    g = Graph(4, np.empty((0, 2), dtype=np.int64))
    A = build_adjacency(g)
    assert np.array_equal(A.toarray(), np.zeros((4, 4)))


def test_adjacency_exact_symmetry(rng):
    g = random_graph(rng, 40, 0.2)
    A = build_adjacency(g)
    At = A.T.tocsr()
    At.sort_indices()
    assert np.array_equal(A.indptr, At.indptr)
    assert np.array_equal(A.indices, At.indices)
    assert np.array_equal(A.data, At.data)


def test_degrees(k3, path3, star5):
    assert all(degree(k3, v) == 2 for v in range(3))
    assert degree(path3, 1) == 2
    assert degree(path3, 0) == 1
    assert degree(star5, 0) == 5
    assert max_degree(k3) == 2
    assert max_degree(star5) == 5


def test_degree_out_of_range(k3):
    with pytest.raises(GraphError):
        degree(k3, 3)
    with pytest.raises(GraphError):
        degree(k3, -1)


def test_max_degree_matches_dense_recount(rng):
    g = random_graph(rng, 30, 0.25)
    dense = build_adjacency(g).toarray()
    assert max_degree(g) == int(dense.sum(axis=1).max())


def test_degree_sum_is_twice_edge_count(rng):
    for _ in range(5):
        g = random_graph(rng, 25, rng.uniform(0.05, 0.5))
        assert g.degrees().sum() == 2 * g.n_edges


def test_csr_dense_round_trip(rng):
    g = random_graph(rng, 15, 0.3)
    A = build_adjacency(g)
    back = freeze_csr(sp.csr_matrix(A.toarray()))
    assert np.array_equal(A.indptr, back.indptr)
    assert np.array_equal(A.indices, back.indices)
    assert np.array_equal(A.data, back.data)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after canonicalization


def test_from_edge_list_cleans_input():
    g = Graph.from_edge_list(4, [(0, 1), (1, 0), (2, 2), (1, 3), (0, 1)])
    assert g.n_edges == 2
    assert g.dropped_self_loops == 1
    assert g.dropped_duplicates == 2


def test_graph_is_immutable(k3):
    with pytest.raises(ValueError):
        k3.edges[0, 0] = 5


def test_feature_and_label_validation():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)], features=np.zeros((2, 4)))
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)], labels=np.array([0, 1, 5]), n_classes=2)
