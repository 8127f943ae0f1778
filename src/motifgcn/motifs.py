"""Motif adjacency matrices, normalization, mixing, and clustering coefficient.

The triangle and wedge motif matrices are built by closed-form sparse
kernels; ``motif_matrix_oracle`` recomputes them by scanning every node
triple and serves as their ground truth on small graphs.

Matrix entries use co-occurrence semantics: entry (u, v) counts motif
instances whose node set contains both u and v, and the diagonal entry
(v, v) counts the instances containing v (extended-diagonal convention).
It was chosen over counting only instances in which (u, v) is an edge so
that a wedge also links its two leaves; for triangles the two coincide.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .graph import Graph, build_adjacency, check_symmetric, freeze_csr

__all__ = [
    "MatrixSource",
    "MixRecipe",
    "MotifError",
    "triangle_motif_matrix",
    "wedge_motif_matrix",
    "motif_matrix_oracle",
    "normalize_symmetric",
    "mix_matrices",
    "clustering_coefficient",
    "triangle_count",
    "wedge_count",
]

DEFAULT_ORACLE_CAP = 200


class MotifError(ValueError):
    pass


class MatrixSource(Enum):
    EDGE = "edge"
    TRIANGLE = "triangle"
    WEDGE = "wedge"


# Motif instances held by a node triple, keyed by how many of its three
# pairs are edges: a closed triple is 1 triangle and 3 wedges.
_INSTANCES_PER_TRIPLE = {
    MatrixSource.TRIANGLE: {3: 1},
    MatrixSource.WEDGE: {3: 3, 2: 1},
}


def _check_binary_adjacency(A: sp.csr_matrix) -> None:
    check_symmetric(A)
    if A.nnz and not np.all(A.data == 1.0):
        raise MotifError("adjacency must be binary (all stored values 1)")
    if np.any(A.diagonal() != 0):
        raise MotifError("adjacency must have zero diagonal")


def triangle_motif_matrix(A: sp.csr_matrix) -> sp.csr_matrix:
    """Triangle motif matrix.

    Off-diagonal (u, v): number of triangles containing both u and v,
    which is |N(u) ∩ N(v)| when {u,v} is an edge and 0 otherwise, so the
    support never leaves the adjacency support. Diagonal (v, v): number
    of triangles containing v.
    """
    _check_binary_adjacency(A)
    common = (A @ A).multiply(A)  # common-neighbor counts restricted to edges
    per_node = np.asarray(common.sum(axis=1)).ravel() / 2.0
    return freeze_csr(common + sp.diags(per_node))


def wedge_motif_matrix(A: sp.csr_matrix) -> sp.csr_matrix:
    """Wedge (length-2 path) motif matrix under co-occurrence counting.

    Off-diagonal (u, v):  [uv in E] * (d(u) + d(v) - 2)  +  |N(u) ∩ N(v)|
    Diagonal  (v, v):  C(d(v), 2)  +  sum over neighbors u of (d(u) - 1)
    """
    _check_binary_adjacency(A)
    d = np.asarray(A.sum(axis=1)).ravel()
    D = sp.diags(d)
    adjacent_part = D @ A + A @ D - 2.0 * A
    paths = A @ A
    paths.setdiag(0.0)
    paths.eliminate_zeros()
    diag = d * (d - 1) / 2.0 + A @ d - d
    return freeze_csr(adjacent_part + paths + sp.diags(diag))


def motif_matrix_oracle(graph: Graph, motif) -> np.ndarray:
    """Dense triangle or wedge motif matrix by brute force (ground truth
    for the kernels).

    Scans every node triple; each motif instance it holds adds 1 to the
    diagonal entries of its three nodes and to both entries of its three
    node pairs.
    """
    instances = _INSTANCES_PER_TRIPLE.get(MatrixSource(motif))
    if instances is None:
        raise MotifError(f"no motif oracle for {motif!r}; use 'triangle' or 'wedge'")
    if graph.n_nodes > DEFAULT_ORACLE_CAP:
        raise MotifError(
            f"graph has {graph.n_nodes} nodes, above the brute-force cap of "
            f"{DEFAULT_ORACLE_CAP}; use the optimized triangle/wedge kernels instead"
        )
    edges = {(int(a), int(b)) for a, b in graph.edges}
    out = np.zeros((graph.n_nodes, graph.n_nodes))
    for triple in itertools.combinations(range(graph.n_nodes), 3):
        n_edges = sum(pair in edges for pair in itertools.combinations(triple, 2))
        count = instances.get(n_edges)
        if count:
            out[np.ix_(triple, triple)] += count
    return out


def normalize_symmetric(M: sp.csr_matrix, add_self_loops: bool) -> sp.csr_matrix:
    """Symmetric normalization D^{-1/2} (M [+ I]) D^{-1/2}.

    D is the diagonal of row sums after the optional self-loop addition.
    Zero-sum rows are left as zero rows.
    """
    if M.nnz and M.data.min() < 0:
        raise MotifError("normalize_symmetric requires nonnegative entries")
    S = M
    if add_self_loops:
        S = S + sp.identity(M.shape[0], format="csr")
    r = np.asarray(S.sum(axis=1)).ravel()
    scale = np.zeros_like(r)
    nz = r > 0
    scale[nz] = 1.0 / np.sqrt(r[nz])
    D = sp.diags(scale)
    return freeze_csr(D @ S @ D)


@dataclass(frozen=True)
class MixRecipe:
    """Weighted combination of the edge matrix and motif matrices."""

    components: tuple

    def __post_init__(self):
        comps = tuple((MatrixSource(src), float(w)) for src, w in self.components)
        if not comps:
            raise MotifError("recipe needs at least one component")
        if not all(0 <= w < np.inf for _, w in comps):
            raise MotifError("recipe weights must be finite and nonnegative")
        if all(w == 0 for _, w in comps):
            raise MotifError("recipe weights must not all be zero")
        object.__setattr__(self, "components", comps)

    @classmethod
    def parse(cls, text: str) -> "MixRecipe":
        """Parse e.g. ``edge:8,triangle:1,wedge:2``."""
        comps = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                name, w = part.split(":")
                comps.append((MatrixSource(name.strip().lower()), float(w)))
            except (ValueError, KeyError) as exc:
                raise MotifError(f"cannot parse recipe component {part!r}") from exc
        return cls(tuple(comps))

    def __str__(self) -> str:
        return ",".join(f"{src.value}:{_format_weight(w)}" for src, w in self.components)


def _format_weight(w: float) -> str:
    # The short %g form wherever it is exact, else repr, which always
    # parses back to the same float.
    short = f"{w:g}"
    return short if float(short) == w else repr(w)


def _component_matrix(source: MatrixSource, A: sp.csr_matrix) -> sp.csr_matrix:
    if source is MatrixSource.EDGE:
        # The +I of GCN-style normalization supplies self-affinity here;
        # motif matrices already carry it on their extended diagonal.
        return normalize_symmetric(A, add_self_loops=True)
    if source is MatrixSource.TRIANGLE:
        return normalize_symmetric(triangle_motif_matrix(A), add_self_loops=False)
    return normalize_symmetric(wedge_motif_matrix(A), add_self_loops=False)


def mix_matrices(recipe: MixRecipe, graph: Graph) -> sp.csr_matrix:
    """Normalized mixed matrix: sum of independently normalized components.

    Weights are rescaled to sum to 1, so ``8:1:2`` and ``16:2:4`` are the
    same recipe. All-zero components (e.g. the triangle matrix of a
    triangle-free graph) are dropped with a warning.
    """
    A = build_adjacency(graph)
    kept = []
    for source, weight in recipe.components:
        if weight == 0:
            continue
        component = _component_matrix(source, A)
        if component.nnz == 0:
            warnings.warn(
                f"{source.value} component is an all-zero matrix; dropped from mix"
            )
            continue
        kept.append((component, weight))
    if not kept:
        raise MotifError("no usable components in recipe")
    total = sum(w for _, w in kept)
    mixed = sum((m * (w / total) for m, w in kept),
                sp.csr_matrix((graph.n_nodes, graph.n_nodes)))
    return freeze_csr(mixed)


def triangle_count(graph: Graph) -> int:
    A = build_adjacency(graph)
    diag = triangle_motif_matrix(A).diagonal()
    return int(round(diag.sum() / 3.0))


def wedge_count(graph: Graph) -> int:
    d = graph.degrees().astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def clustering_coefficient(graph: Graph) -> float:
    """Global clustering coefficient: 3 * triangles / wedges."""
    wedges = wedge_count(graph)
    if wedges == 0:
        raise MotifError("undefined clustering coefficient: graph has no wedges")
    return 3.0 * triangle_count(graph) / wedges
