import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.graph import (
    Graph,
    GraphError,
    _canonical_adjacency,
    build_adjacency,
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
    assert all(k3.degrees()[v] == 2 for v in range(3))
    assert path3.degrees()[1] == 2
    assert path3.degrees()[0] == 1
    assert star5.degrees()[0] == 5
    assert max_degree(k3) == 2
    assert max_degree(star5) == 5


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
    with pytest.raises(GraphError):  # before scipy's own ValueError
        Graph.from_edge_list(3, [(0, 5)])


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


def _messy_rows(rng, n, lo, hi):
    """Random rows in [lo, hi), with some repeated as given and some
    reversed; endpoints may coincide."""
    m = int(rng.integers(0, 3 * n + 3))
    rows = [tuple(map(int, r)) for r in rng.integers(lo, hi, size=(m, 2))]
    rows += [(v, u) for u, v in rows[: int(rng.integers(0, len(rows) + 1))]]
    rows += rows[: int(rng.integers(0, 3))]
    return [rows[i] for i in rng.permutation(len(rows))]


def _reference(n, rows):
    """Set-based reading of an edge list: (Graph's error, from_edge_list's
    error, pairs, self-loop rows, duplicate rows)."""
    def out_of_range(rows):
        return any(not (0 <= u < n and 0 <= v < n) for u, v in rows)

    loop_free = [(u, v) for u, v in rows if u != v]
    pairs = sorted({(min(u, v), max(u, v)) for u, v in loop_free})
    loops, dupes = len(rows) - len(loop_free), len(loop_free) - len(pairs)
    if out_of_range(rows):
        error = "out of range"
    else:
        error = "self-loop" if loops else "duplicate" if dupes else None
    # from_edge_list drops self-loops before the range check.
    cleaning_error = "out of range" if out_of_range(loop_free) else None
    return error, cleaning_error, pairs, loops, dupes


def test_constructors_match_set_reference():
    rng = np.random.default_rng(11)
    for trial in range(400):
        n = int(rng.integers(0, 12))
        lo, hi = (-1, n + 1) if trial % 8 == 0 else (0, max(n, 1))
        rows = _messy_rows(rng, n, lo, hi) if n or trial % 8 == 0 else []
        error, cleaning_error, pairs, loops, dupes = _reference(n, rows)
        if error:
            with pytest.raises(GraphError, match=error):
                Graph(n, rows)
        if cleaning_error:
            with pytest.raises(GraphError, match=cleaning_error):
                Graph.from_edge_list(n, rows)
            continue
        dense = np.zeros((n, n))
        for u, v in pairs:
            dense[u, v] = dense[v, u] = 1.0
        if error != "out of range":
            # The shared build reads every row as given: a loop marks the
            # diagonal, and a repeated pair still reads 1.
            _, A = _canonical_adjacency(n, np.array(rows, dtype=np.int64).reshape(-1, 2))
            with_loops = dense.copy()
            for u, v in rows:
                if u == v:
                    with_loops[u, u] = 1.0
            assert np.array_equal(A.toarray(), with_loops)
        built = [Graph.from_edge_list(n, rows)]
        if error is None:
            built.append(Graph(n, rows))
        for g in built:
            assert g.edges.dtype == np.int64
            assert g.edges.tolist() == [list(p) for p in pairs]
            A = build_adjacency(g)
            assert np.array_equal(A.toarray(), dense)
            assert np.array_equal(A.data, np.ones(A.nnz))
        assert (built[0].dropped_self_loops, built[0].dropped_duplicates) == (loops, dupes)
