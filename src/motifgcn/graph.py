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
    "degree",
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


def _freeze_features(features):
    """Read-only float64 copy: a dense array, or canonical CSR for sparse input."""
    if not sp.issparse(features):
        return _freeze(np.asarray(features, dtype=np.float64))
    return freeze_csr(sp.csr_matrix(features, dtype=np.float64, copy=True))


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with optional node features and labels.

    Attributes:
        n_nodes: number of nodes N; nodes are the integers [0, N).
        edges: (m, 2) int array of unordered pairs with u < v, no
            duplicates, no self-loops.
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
    _neighbors: sp.csr_matrix = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n_nodes:
                raise GraphError("edge endpoint out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise GraphError("self-loop in edge list")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            edges = np.stack([lo, hi], axis=1)
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            if edges.shape[0] > 1 and (np.diff(edges, axis=0) == 0).all(axis=1).any():
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
        # Frozen adjacency, built once; serves neighbor queries and
        # build_adjacency.
        n = self.n_nodes
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        object.__setattr__(self, "_neighbors", freeze_csr(adj))

    @classmethod
    def from_edge_list(cls, n_nodes, raw_edges, **kwargs) -> "Graph":
        """Build a graph from a possibly messy edge list.

        Self-loops are dropped and duplicate pairs collapsed; the counts
        of dropped lines are kept on the instance.
        """
        raw = np.asarray(list(raw_edges), dtype=np.int64).reshape(-1, 2)
        loops = int((raw[:, 0] == raw[:, 1]).sum()) if raw.size else 0
        raw = raw[raw[:, 0] != raw[:, 1]] if raw.size else raw
        if raw.size:
            lo = np.minimum(raw[:, 0], raw[:, 1])
            hi = np.maximum(raw[:, 0], raw[:, 1])
            pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
            dupes = raw.shape[0] - pairs.shape[0]
        else:
            pairs = raw.reshape(0, 2)
            dupes = 0
        return cls(
            n_nodes,
            pairs,
            dropped_self_loops=loops,
            dropped_duplicates=int(dupes),
            **kwargs,
        )

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return 0 if self.features is None else int(self.features.shape[1])

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n_nodes:
            raise GraphError(f"node {v} out of range [0, {self.n_nodes})")
        a = self._neighbors
        return a.indices[a.indptr[v] : a.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self._neighbors.indptr).astype(np.int64)


def build_adjacency(graph: Graph) -> sp.csr_matrix:
    """Binary symmetric adjacency matrix A with zero diagonal, nnz = 2|E|.

    Returns the graph's own frozen CSR matrix, not a copy.
    """
    return graph._neighbors


def degree(graph: Graph, v: int) -> int:
    """Number of neighbors of node v."""
    return int(graph.neighbors(v).size)


def max_degree(graph: Graph) -> int:
    """Maximum degree over all nodes; 0 for an empty graph."""
    if graph.n_nodes == 0:
        return 0
    return int(graph.degrees().max())
