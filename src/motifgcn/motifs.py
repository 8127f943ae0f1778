"""Motif adjacency matrices, normalization, mixing, and clustering coefficient.

Two routes exist for building motif matrices:

* optimized sparse kernels for the triangle and wedge motifs, and
* a brute-force enumerator usable for any small connected pattern,
  which serves as the ground-truth oracle for the kernels.

Matrix entries use co-occurrence semantics: entry (u, v) counts motif
instances whose node set contains both u and v, and the diagonal entry
(v, v) counts the instances containing v (extended-diagonal convention).
The enumeration oracle can alternatively count only instances in which
(u, v) is one of the instance edges (``edge_in_instance`` semantics);
for triangles the two coincide, for wedges they differ on leaf pairs.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .graph import Graph, build_adjacency, check_symmetric, freeze_csr, max_degree

__all__ = [
    "MotifKind",
    "MotifSpec",
    "MotifInstance",
    "MatrixSource",
    "MixRecipe",
    "MotifError",
    "triangle_motif_matrix",
    "wedge_motif_matrix",
    "enumerate_motif_instances",
    "motif_matrix_oracle",
    "normalize_symmetric",
    "mix_matrices",
    "clustering_coefficient",
    "triangle_count",
    "wedge_count",
]

DEFAULT_ORACLE_CAP = 200

CO_OCCURRENCE = "co_occurrence"
EDGE_IN_INSTANCE = "edge_in_instance"


class MotifError(ValueError):
    pass


class MotifKind(Enum):
    TRIANGLE = "triangle"
    WEDGE = "wedge"
    GENERIC = "generic"


@dataclass(frozen=True)
class MotifSpec:
    """A motif pattern: node count, edge set over pattern nodes, central node.

    TRIANGLE and WEDGE carry their canonical patterns so the brute-force
    enumerator can handle them uniformly with GENERIC specs.
    """

    kind: MotifKind
    pattern_nodes: int
    pattern_edges: tuple
    central: int

    def __post_init__(self):
        if not 2 <= self.pattern_nodes <= 5:
            raise MotifError("pattern must have 2-5 nodes")
        if not 0 <= self.central < self.pattern_nodes:
            raise MotifError("central node outside pattern")
        edges = set()
        for a, b in self.pattern_edges:
            if a == b or not (0 <= a < self.pattern_nodes and 0 <= b < self.pattern_nodes):
                raise MotifError("bad pattern edge")
            edges.add((min(a, b), max(a, b)))
        object.__setattr__(self, "pattern_edges", tuple(sorted(edges)))
        if not self._connected():
            raise MotifError("pattern must be connected")

    def _connected(self) -> bool:
        adj = {i: set() for i in range(self.pattern_nodes)}
        for a, b in self.pattern_edges:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.pattern_nodes

    @classmethod
    def triangle(cls) -> "MotifSpec":
        return cls(MotifKind.TRIANGLE, 3, ((0, 1), (0, 2), (1, 2)), 0)

    @classmethod
    def wedge(cls) -> "MotifSpec":
        # Central node 0 is the wedge center.
        return cls(MotifKind.WEDGE, 3, ((0, 1), (0, 2)), 0)

    @classmethod
    def generic(cls, n_nodes, edges, central=0) -> "MotifSpec":
        return cls(MotifKind.GENERIC, n_nodes, tuple(edges), central)


@dataclass(frozen=True)
class MotifInstance:
    """One motif occurrence: its node set and the edges realizing the pattern."""

    node_set: frozenset
    edge_set: frozenset


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


def _connected_subsets(graph: Graph, k: int):
    """Yield every connected node subset of size k exactly once (ESU)."""
    neigh = [set(graph.neighbors(v).tolist()) for v in range(graph.n_nodes)]

    def extend(sub, ext, root, closed):
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        ext = set(ext)
        while ext:
            w = ext.pop()
            grown = ext | {u for u in neigh[w] if u > root and u not in closed}
            yield from extend(sub | {w}, grown, root, closed | neigh[w])

    for v in range(graph.n_nodes):
        seed_ext = {u for u in neigh[v] if u > v}
        yield from extend({v}, seed_ext, v, neigh[v] | {v})


def enumerate_motif_instances(graph: Graph, spec: MotifSpec, oracle_cap=DEFAULT_ORACLE_CAP):
    """All distinct motif instances in the graph.

    Distinctness is by the (node set, edge set) pair, so pattern
    automorphisms do not inflate counts: K3 holds one triangle instance
    and three wedge instances.
    """
    if graph.n_nodes > oracle_cap:
        raise MotifError(
            f"graph has {graph.n_nodes} nodes, above the brute-force cap of "
            f"{oracle_cap}; use the optimized triangle/wedge kernels instead"
        )
    edge_lookup = {(int(a), int(b)) for a, b in graph.edges}
    pattern_ids = list(range(spec.pattern_nodes))
    instances = []
    for subset in _connected_subsets(graph, spec.pattern_nodes):
        edge_sets = set()
        for perm in itertools.permutations(subset):
            # perm[i] is the host node playing pattern role i
            mapped = []
            ok = True
            for a, b in spec.pattern_edges:
                e = (min(perm[a], perm[b]), max(perm[a], perm[b]))
                if e not in edge_lookup:
                    ok = False
                    break
                mapped.append(e)
            if ok:
                edge_sets.add(frozenset(mapped))
        for es in sorted(edge_sets, key=sorted):
            instances.append(MotifInstance(frozenset(subset), es))
    return instances


def motif_matrix_oracle(graph: Graph, spec: MotifSpec, semantics=CO_OCCURRENCE,
                        oracle_cap=DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Dense motif matrix by explicit enumeration (ground truth for kernels)."""
    if semantics not in (CO_OCCURRENCE, EDGE_IN_INSTANCE):
        raise MotifError(f"unknown semantics {semantics!r}")
    n = graph.n_nodes
    out = np.zeros((n, n))
    for inst in enumerate_motif_instances(graph, spec, oracle_cap):
        nodes = sorted(inst.node_set)
        for v in nodes:
            out[v, v] += 1
        if semantics == CO_OCCURRENCE:
            for u, v in itertools.combinations(nodes, 2):
                out[u, v] += 1
                out[v, u] += 1
        else:
            for u, v in inst.edge_set:
                out[u, v] += 1
                out[v, u] += 1
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


class MatrixSource(Enum):
    EDGE = "edge"
    TRIANGLE = "triangle"
    WEDGE = "wedge"


@dataclass(frozen=True)
class MixRecipe:
    """Weighted combination of the edge matrix and motif matrices."""

    components: tuple

    def __post_init__(self):
        comps = tuple((MatrixSource(src), float(w)) for src, w in self.components)
        if not comps:
            raise MotifError("recipe needs at least one component")
        if any(w < 0 for _, w in comps):
            raise MotifError("recipe weights must be nonnegative")
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
        return ",".join(f"{src.value}:{w:g}" for src, w in self.components)


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
