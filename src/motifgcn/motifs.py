"""Motif adjacency matrices, normalization, mixing, and clustering coefficient.

The triangle and wedge motif matrices are built by closed-form sparse
kernels; ``motif_matrix_oracle`` recomputes them by scanning every node
triple and serves as their ground truth on small graphs.

Triangles are listed without forming A². Each edge is oriented from the
lower to the higher (degree, id) rank, giving U with A = U + Uᵀ
("forward" listing, Schank & Wagner 2005; Latapy 2008). A node's
out-degree in U is then at most sqrt(2|E|), and (U @ U)∘U holds each
triangle exactly once, at the edge from its lowest- to its
highest-ranked node. That product costs Σ in·out over the nodes instead
of the Σ d² of A², which hubs dominate.

Matrix entries use co-occurrence semantics: entry (u, v) counts motif
instances whose node set contains both u and v, and the diagonal entry
(v, v) counts the instances containing v (extended-diagonal convention).
It was chosen over counting only instances in which (u, v) is an edge so
that a wedge also links its two leaves; for triangles the two coincide.

The wedge matrix splits exactly over the adjacency A with degrees d:
``W = B + A²`` with ``B = DA + AD - 2A + diag(C(d,2) + A·d - 2d)``,
whose support lies inside A ∪ diag. Its row sums are therefore known in
closed form, ``d² + 3·A·d - 4d + C(d,2)``. The mix uses the split to
apply the normalized wedge term as ``s∘A(A(s∘Y))`` and never stores A²,
which is the densest matrix in the model (up to 2·|E|·d_max entries).
Only ``wedge_motif_matrix`` forms A²; as A² is symmetric, ``(A @ A).T``
converted to CSR is A² with every row sorted, in one O(nnz) pass instead
of a sort per row.

A model often reads only some rows of S @ Y, so the operator also comes
restricted, as one ``Restricted`` type that keeps either every row or
every column. ``S.walk(R, depth)`` goes down ``depth`` stacked applies
whose output is read on R and gives, for each, the rows it computes and
N1, their neighbors in A, found once per row set. ``S.rows(R, N1)``
computes the rows R alone, as
``P[R] @ Y + c·s[R]∘(A[R][:, N1] @ (A[N1] @ (s∘Y)))``; ``S.columns(R, N1)``
computes S @ d for a d that is zero outside R, as
``P[:, R] @ d[R] + c·s∘(A[:, N1] @ (A[N1][:, R] @ (s[R]∘d[R])))``.
Slicing keeps each row's stored order, so every product sums the same
nonzero terms in the same order as the full one and the results are
bit-identical to it. The column form slices columns rather than
transposing P[R]: P is symmetric only up to rounding (s_i·a·s_j against
s_j·a·s_i), so P[R].T holds other values.
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
    "MixedOperator",
    "MotifError",
    "triangle_motif_matrix",
    "wedge_motif_matrix",
    "motif_matrix_oracle",
    "normalize_symmetric",
    "mix_matrices",
    "clustering_coefficient",
    "clustering_from_counts",
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


def _ranked_triangles(A: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(U, H) for a binary adjacency A.

    U is canonical CSR holding each edge of A once, pointing from the
    lower to the higher (degree, id) rank. H = (U @ U)∘U counts at (a, c)
    the nodes b with a→b→c, that is the triangles whose lowest-ranked
    node is a and highest-ranked node is c; every triangle is counted
    once.
    """
    _check_binary_adjacency(A)
    n = A.shape[0]
    d = np.diff(A.indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(d, kind="stable")] = np.arange(n)  # ties go by id
    up = np.repeat(rank, d) < rank[A.indices]
    kept = np.concatenate([[0], np.cumsum(up)])  # kept entries before each position
    U = sp.csr_matrix((A.data[up], A.indices[up], kept[A.indptr]), shape=A.shape)
    return U, (U @ U).multiply(U)


def triangle_motif_matrix(A: sp.csr_matrix) -> sp.csr_matrix:
    """Triangle motif matrix.

    Off-diagonal (u, v): number of triangles containing both u and v,
    which is |N(u) ∩ N(v)| when {u,v} is an edge and 0 otherwise, so the
    support never leaves the adjacency support. Diagonal (v, v): number
    of triangles containing v.

    Lists every triangle (a, b, c) from the degree-oriented edges (see
    the module docstring): each hit (a, c) of (U @ U)∘U finds its middle
    nodes b among the out-neighbors of a with b→c in U. Each triangle
    then adds 1 to both entries of its three edges and to the diagonal
    entries of its three nodes.
    """
    U, H = _ranked_triangles(A)
    n = A.shape[0]
    H = H.tocoo()
    # Candidate middles: every out-neighbor of a, for each hit (a, c).
    count = np.diff(U.indptr)[H.row]
    a, c = np.repeat(H.row, count), np.repeat(H.col, count)
    first = np.cumsum(count) - count  # where each hit's candidates begin
    b = U.indices[np.arange(a.size) + np.repeat(U.indptr[H.row] - first, count)]
    # Keep the candidates with b→c in U; U's keys row·n + col are sorted.
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(U.indptr)) * n + U.indices
    wanted = b.astype(np.int64) * n + c
    closed = keys[np.minimum(np.searchsorted(keys, wanted), keys.size - 1)] == wanted
    a, b, c = a[closed], b[closed], c[closed]
    rows = np.concatenate([a, b, a, c, b, c, a, b, c])
    cols = np.concatenate([b, a, c, a, c, b, a, b, c])
    return freeze_csr(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)))


def wedge_motif_matrix(A: sp.csr_matrix) -> sp.csr_matrix:
    """Wedge (length-2 path) motif matrix under co-occurrence counting.

    Off-diagonal (u, v):  [uv in E] * (d(u) + d(v) - 2)  +  |N(u) ∩ N(v)|
    Diagonal  (v, v):  C(d(v), 2)  +  sum over neighbors u of (d(u) - 1)
    """
    _check_binary_adjacency(A)
    B, _ = _wedge_split(A)
    # A² is symmetric, so its transpose as CSR is A² with sorted rows,
    # and the sum takes scipy's path for sorted inputs.
    return freeze_csr(B + (A @ A).T.tocsr())


def _wedge_split(A: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """B of the split W = B + A² and the row sums of W.

    A² holds the common-neighbor counts off the diagonal and d on it, so
    B = DA + AD - 2A + diag(C(d,2) + A·d - 2d) carries the rest of W. B's
    diagonal can be negative (-1 at both ends of an isolated edge), so B
    is no motif matrix by itself. Every value is an integer, so both
    results are exact.
    """
    d = np.asarray(A.sum(axis=1)).ravel()
    Ad = A @ d
    pairs = d * (d - 1) / 2.0
    D = sp.diags(d)
    B = D @ A + A @ D - 2.0 * A + sp.diags(pairs + Ad - 2.0 * d)
    return B, d * d + 3.0 * Ad - 4.0 * d + pairs


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
    D = sp.diags(_inverse_sqrt(np.asarray(S.sum(axis=1)).ravel()))
    return freeze_csr(D @ S @ D)


def _inverse_sqrt(r: np.ndarray) -> np.ndarray:
    """r^{-1/2} elementwise for nonnegative r, 0 where r is 0."""
    scale = np.zeros_like(r)
    nz = r > 0
    scale[nz] = 1.0 / np.sqrt(r[nz])
    return scale


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


def _normalized_part(source: MatrixSource, A: sp.csr_matrix):
    """A source's normalized matrix as (part on A ∪ diag, wedge scaling).

    Edge and triangle: the part is the whole normalized matrix and the
    scaling is None. Wedge: with s = rowsum(W)^{-1/2} and W = B + A², the
    normalized matrix is s∘B∘s + s∘A²∘s; the part is s∘B∘s and s is
    returned for the A² term, which ``MixedOperator`` applies.
    """
    if source is MatrixSource.EDGE:
        # The +I of GCN-style normalization supplies self-affinity here;
        # motif matrices already carry it on their extended diagonal.
        return normalize_symmetric(A, add_self_loops=True), None
    if source is MatrixSource.TRIANGLE:
        return normalize_symmetric(triangle_motif_matrix(A), add_self_loops=False), None
    B, rowsum = _wedge_split(A)
    s = _inverse_sqrt(rowsum)
    Ds = sp.diags(s)
    return Ds @ B @ Ds, s


@dataclass(frozen=True, eq=False)  # identity equality: arrays do not compare to a bool
class MixedOperator:
    """The normalized mixed matrix S = P + c·diag(s)·A²·diag(s), applied
    without storing A².

    Attributes:
        P: frozen CSR on the pattern of A plus the diagonal: the weighted
            edge and triangle components plus c·s∘B∘s from the wedge.
        A: the graph's frozen adjacency.
        s: read-only wedge scaling rowsum(W)^{-1/2}, 0 on zero rows (and
            everywhere when the mix has no wedge component).
        c: wedge weight over the total weight; 0 without a wedge.

    Every field is read-only, so threads may share one operator.
    """

    P: sp.csr_matrix
    A: sp.csr_matrix
    s: np.ndarray
    c: float

    @property
    def shape(self) -> tuple:
        return self.P.shape

    @property
    def nnz(self) -> int:
        """Stored values one apply reads per column of its argument."""
        return self.P.nnz + (2 * self.A.nnz if self.c else 0)

    def __matmul__(self, Y: np.ndarray) -> np.ndarray:
        """S @ Y as P @ Y + c·s∘(A @ (A @ (s∘Y))), for a dense Y."""
        out = self.P @ Y
        if self.c:
            s = _scaling(self.s, Y)
            far = self.A @ (self.A @ (s * Y))
            far *= self.c * s
            out += far
        return out

    def to_scipy(self) -> sp.csr_matrix:
        """S materialized as frozen canonical CSR, A² entries included."""
        Ds = sp.diags(self.s)
        return freeze_csr(self.P + self.c * (Ds @ (self.A @ self.A) @ Ds))

    def walk(self, rows: np.ndarray, depth: int) -> list:
        """(R, N1) for each of ``depth`` stacked applies of S whose last
        output is read on ``rows`` (sorted, distinct), in apply order. R
        is the rows an apply computes and N1 the sorted neighbors in A of
        R, empty without a wedge term. The last apply computes ``rows``;
        each one below computes the rows S[R] reads from the one above:
        one hop through P's support (A ∪ diag) and, with a wedge term, a
        second through A from N1. S's pattern is symmetric, so these are
        also the rows where S @ d can be nonzero for a d that is zero
        outside the R above."""
        steps = []
        while True:
            near = _columns_of(self.A[rows]) if self.c else rows[:0]
            steps.append((rows, near))
            if len(steps) == depth:
                return steps[::-1]
            hit = np.zeros(self.shape[0], dtype=bool)
            hit[self.P[rows].indices] = True
            hit[self.A[near].indices] = True
            rows = np.flatnonzero(hit)

    def rows(self, rows: np.ndarray, near: np.ndarray):
        """S restricted to the rows ``rows``, with N1 ``near`` from ``walk``."""
        return self._restricted(rows, None, near)

    def columns(self, columns: np.ndarray, near: np.ndarray):
        """S restricted to the columns ``columns``, with N1 ``near`` from ``walk``."""
        return self._restricted(None, columns, near)

    def _restricted(self, rows, columns, near):
        """A ``Restricted``, or S itself when that would read more than
        ``FULL_FRACTION`` of S's values. It reads P's rows at the
        restricted nodes and, with a wedge term, A's rows there and at N1;
        the patterns of P and A are symmetric, so a column slice holds as
        many values as a row slice."""
        nodes = columns if rows is None else rows
        reads = _row_nnz(self.P, nodes) + _row_nnz(self.A, near)
        if self.c:
            reads += _row_nnz(self.A, nodes)
        if nodes.size == self.shape[0] or reads > FULL_FRACTION * self.nnz:
            return self
        return Restricted(self.shape, rows, columns, _block(self.P, rows, columns),
                          _block(self.A, rows, near), _block(self.A, near, columns),
                          self.s, self.c)


# A restricted operator that would read more than this share of the full
# operator's values is not built: it applies little faster than the full
# one, and on the 50k-node benchmark graph building a near-full one cost
# a third to a half of a full apply.
FULL_FRACTION = 0.75


def _columns_of(M: sp.csr_matrix) -> np.ndarray:
    """Sorted distinct column indices stored in M."""
    hit = np.zeros(M.shape[1], dtype=bool)
    hit[M.indices] = True
    return np.flatnonzero(hit)


def _row_nnz(M: sp.csr_matrix, rows: np.ndarray) -> int:
    return int((M.indptr[rows + 1] - M.indptr[rows]).sum())


def _block(M: sp.csr_matrix, rows, columns) -> sp.csr_matrix:
    """M[rows][:, columns], where None takes every row or column."""
    if rows is not None:
        M = M[rows]
    return M if columns is None else M[:, columns]


def _pick(v: np.ndarray, idx):
    """v[idx], or v itself when idx is None."""
    return v if idx is None else v[idx]


def _scaling(s: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """s shaped to broadcast over the rows of Y."""
    return s.reshape((-1,) + (1,) * (np.ndim(Y) - 1))


@dataclass(frozen=True, eq=False)
class Restricted:
    """S with every row outside ``rows`` and every column outside
    ``columns`` zeroed, where None keeps them all (see the module
    docstring). With R_o = ``rows`` and R_i = ``columns``, ``self @ Y`` is

        P[R_o][:, R_i] @ Y[R_i]
            + c·s[R_o]∘(A[R_o][:, N1] @ (A[N1][:, R_i] @ (s[R_i]∘Y[R_i])))

    on the rows R_o and 0 elsewhere, which is S @ Y bit for bit on R_o
    whenever Y is zero outside R_i. N1 is the sorted set of neighbors in
    A of the restricted side, empty without a wedge term.

    Attributes:
        shape: the full operator's shape.
        rows, columns: R_o and R_i, each sorted and distinct, or None.
        P: P[R_o][:, R_i].
        A_out: A[R_o][:, N1].
        A_in: A[N1][:, R_i].
        s, c: the full operator's wedge scaling and weight.
    """

    shape: tuple
    rows: np.ndarray | None
    columns: np.ndarray | None
    P: sp.csr_matrix
    A_out: sp.csr_matrix
    A_in: sp.csr_matrix
    s: np.ndarray
    c: float

    @property
    def nnz(self) -> int:
        """Stored values one apply reads per column of its argument."""
        return self.P.nnz + self.A_out.nnz + self.A_in.nnz

    def __matmul__(self, Y: np.ndarray) -> np.ndarray:
        Y = _pick(Y, self.columns)
        out = self.P @ Y
        if self.c:
            s = _scaling(self.s, Y)
            far = self.A_out @ (self.A_in @ (_pick(s, self.columns) * Y))
            far *= self.c * _pick(s, self.rows)
            out += far
        if self.rows is None:
            return out
        full = np.zeros((self.shape[0],) + np.shape(Y)[1:])
        full[self.rows] = out
        return full


def mix_matrices(recipe: MixRecipe, graph: Graph) -> MixedOperator:
    """Normalized mixed matrix: sum of independently normalized components.

    Weights are rescaled to sum to 1, so ``8:1:2`` and ``16:2:4`` are the
    same recipe. All-zero components (e.g. the triangle matrix of a
    triangle-free graph, or the wedge matrix of a graph with no two
    adjacent edges) are dropped with a warning.

    The wedge matrix splits as W = B + A², where B's support lies inside
    A ∪ diag, and its row sums are d² + 3·A·d - 4d + C(d,2) in closed form
    (see the module docstring). So everything but the A² term sums into
    one CSR P on A ∪ diag, and the returned ``MixedOperator`` applies the
    A² term as two products with A. ``to_scipy()`` materializes the mix.
    """
    A = build_adjacency(graph)
    n = graph.n_nodes
    kept = []
    for source, weight in recipe.components:
        if weight == 0:
            continue
        part, s = _normalized_part(source, A)
        all_zero = part.nnz == 0 if s is None else not s.any()
        if all_zero:
            warnings.warn(
                f"{source.value} component is an all-zero matrix; dropped from mix"
            )
            continue
        kept.append((part, weight, s))
    if not kept:
        raise MotifError("no usable components in recipe")
    total = sum(w for _, w, _ in kept)
    P = sum((part * (w / total) for part, w, _ in kept), sp.csr_matrix((n, n)))
    wedge = [(w / total, s) for _, w, s in kept if s is not None]
    s = wedge[0][1] if wedge else np.zeros(n)
    s.flags.writeable = False
    return MixedOperator(freeze_csr(P), A, s, float(sum(c for c, _ in wedge)))


def triangle_count(graph: Graph) -> int:
    _, H = _ranked_triangles(build_adjacency(graph))
    return int(H.sum())


def wedge_count(graph: Graph) -> int:
    d = graph.degrees().astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def clustering_coefficient(graph: Graph) -> float:
    """Global clustering coefficient: 3 * triangles / wedges."""
    return clustering_from_counts(triangle_count(graph), wedge_count(graph))


def clustering_from_counts(triangles: int, wedges: int) -> float:
    """3 * triangles / wedges; MotifError when there is no wedge."""
    if wedges == 0:
        raise MotifError("undefined clustering coefficient: graph has no wedges")
    return 3.0 * triangles / wedges
