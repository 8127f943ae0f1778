"""The Graph type and the frozen-CSR helpers shared by every other module.

Nodes are contiguous integers in [0, N). Loaders are responsible for
remapping external IDs before a Graph is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "build_adjacency",
    "check_symmetric",
    "freeze_csr",
    "max_degree",
]

SYMMETRY_TOL = 1e-12

# Label value for nodes that carry no label.
UNLABELED = -1


class GraphError(ValueError):
    """Raised when graph construction input violates an invariant."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def freeze_csr(m) -> sp.csr_matrix:
    """Canonical, read-only CSR: sorted indices, no duplicates, no explicit zeros.

    A CSR input is changed in place rather than copied, so pass only a
    matrix the caller owns. The read-only arrays make the result safe to
    share across threads.
    """
    m = m.tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


def check_symmetric(m, tol: float = SYMMETRY_TOL) -> None:
    """Raise GraphError unless m is square and max |m - m^T| <= tol."""
    if m.shape[0] != m.shape[1]:
        raise GraphError("matrix is not square")
    d = m - m.T
    if d.nnz and np.abs(d.data).max() > tol:
        raise GraphError("matrix is not symmetric")


def _canonical_adjacency(n: int, edges: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """(pairs, A) for an (m, 2) int64 edge list. A is the frozen binary
    adjacency of both orientations of every row, nonzero on the diagonal
    where a row is a self-loop; pairs is A's strict upper triangle read
    row by row: the distinct u < v pairs in lexicographic order."""
    if ((edges < 0) | (edges >= n)).any():
        raise GraphError("edge endpoint out of range")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adj.data[:] = 1.0  # the build summed each repeated pair
    adj = freeze_csr(adj)
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    upper = adj.indices > row_of
    pairs = np.stack([row_of[upper], adj.indices[upper].astype(np.int64)], axis=1)
    return pairs, adj


def _freeze_features(features):
    """Read-only float64 copy: a dense array, or canonical CSR for sparse input."""
    if not sp.issparse(features):
        return _freeze(np.asarray(features, dtype=np.float64))
    return freeze_csr(sp.csr_matrix(features, dtype=np.float64, copy=True))


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with optional node features and labels.

    ``edges`` is read back from the binary adjacency A built from the rows
    passed in. An endpoint outside [0, N), a self-loop or a repeated pair,
    in either orientation, raises GraphError, checked in that order.

    Attributes:
        n_nodes: number of nodes N; nodes are the integers [0, N).
        edges: (m, 2) int64 array of the pairs u < v, sorted.
        features: (N, T) float features as a dense array or a scipy
            CSR matrix (sparse input stays sparse through the first
            layer), or None. Either form is read-only: the CSR form has
            sorted indices, no explicit zeros and read-only arrays.
        labels: (N,) int array of class indices; UNLABELED marks
            unlabeled nodes. None when the graph carries no labels.
        n_classes: class count L (0 when unlabeled).
        dropped_self_loops: self-loop lines discarded at construction.
        dropped_duplicates: duplicate edge lines discarded at construction.
    """

    n_nodes: int
    edges: np.ndarray
    features: np.ndarray | sp.csr_matrix | None = None
    labels: np.ndarray | None = None
    n_classes: int = 0
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0
    _neighbors: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        edges, adj = _canonical_adjacency(self.n_nodes, rows)
        if adj.diagonal().any():
            raise GraphError("self-loop in edge list")
        if edges.shape[0] < rows.shape[0]:
            raise GraphError("duplicate edge in edge list")
        object.__setattr__(self, "edges", _freeze(edges))
        if self.features is not None:
            feats = _freeze_features(self.features)
            if feats.shape[0] != self.n_nodes:
                raise GraphError("features row count must equal n_nodes")
            object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (self.n_nodes,):
                raise GraphError("labels must be one entry per node")
            present = labels[labels != UNLABELED]
            if present.size and (present.min() < 0 or present.max() >= self.n_classes):
                raise GraphError("label out of range [0, n_classes)")
            object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "_neighbors", adj)

    @classmethod
    def from_edge_list(cls, n_nodes, raw_edges, **kwargs) -> "Graph":
        """Build a graph from a possibly messy edge list.

        Self-loops are dropped and repeated pairs, in either orientation,
        collapsed; the counts of dropped lines are kept on the instance.
        """
        raw = np.asarray(list(raw_edges), dtype=np.int64).reshape(-1, 2)
        loop_free = raw[raw[:, 0] != raw[:, 1]]
        pairs, _ = _canonical_adjacency(n_nodes, loop_free)
        return cls(
            n_nodes,
            pairs,
            dropped_self_loops=raw.shape[0] - loop_free.shape[0],
            dropped_duplicates=loop_free.shape[0] - pairs.shape[0],
            **kwargs,
        )

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return 0 if self.features is None else int(self.features.shape[1])

    def degrees(self) -> np.ndarray:
        return np.diff(self._neighbors.indptr).astype(np.int64)


def build_adjacency(graph: Graph) -> sp.csr_matrix:
    """Binary symmetric adjacency matrix A with zero diagonal, nnz = 2|E|.

    Returns the graph's own frozen CSR matrix, not a copy.
    """
    return graph._neighbors


def max_degree(graph: Graph) -> int:
    """Maximum degree over all nodes; 0 for an empty graph."""
    if graph.n_nodes == 0:
        return 0
    return int(graph.degrees().max())
