import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.graph import Graph, GraphError, build_adjacency, check_symmetric, freeze_csr, max_degree
from motifgcn.motifs import (
    DEFAULT_ORACLE_CAP,
    MixRecipe,
    MotifError,
    clustering_coefficient,
    mix_matrices,
    motif_matrix_oracle,
    normalize_symmetric,
    triangle_count,
    triangle_motif_matrix,
    wedge_count,
    wedge_motif_matrix,
    wedge_motif_nnz,
)
from motifgcn.verify import random_graph


# ---------------------------------------------------------------- kernels

def test_triangle_matrix_k3(k3):
    M = triangle_motif_matrix(build_adjacency(k3)).toarray()
    assert np.array_equal(M, np.ones((3, 3)))


def test_triangle_matrix_path_is_zero(path3):
    M = triangle_motif_matrix(build_adjacency(path3))
    assert M.nnz == 0


def test_wedge_matrix_path(path3):
    M = wedge_motif_matrix(build_adjacency(path3)).toarray()
    assert np.array_equal(M, np.ones((3, 3)))


def test_wedge_matrix_k3(k3):
    # three wedges in K3, every pair (and every node) is in all of them
    M = wedge_motif_matrix(build_adjacency(k3)).toarray()
    assert np.array_equal(M, 3 * np.ones((3, 3)))


def test_kernels_reject_bad_input(k3):
    A = build_adjacency(k3)
    nonbinary = freeze_csr(sp.csr_matrix(2 * A.toarray()))
    with pytest.raises(MotifError):
        triangle_motif_matrix(nonbinary)
    with_diag = freeze_csr(sp.csr_matrix(A.toarray() + np.eye(3)))
    with pytest.raises(MotifError):
        wedge_motif_matrix(with_diag)
    asymmetric = freeze_csr(sp.csr_matrix(np.triu(A.toarray())))
    for kernel in (triangle_motif_matrix, wedge_motif_matrix,
                   lambda M: wedge_motif_nnz(M, triangle_motif_matrix(A))):
        with pytest.raises(GraphError):
            kernel(asymmetric)


def test_kernels_match_oracle_on_random_graphs(rng):
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(5, 26)), float(rng.uniform(0.1, 0.5)))
        A = build_adjacency(g)
        tri = triangle_motif_matrix(A).toarray()
        assert np.array_equal(tri, motif_matrix_oracle(g, "triangle"))
        wedge = wedge_motif_matrix(A).toarray()
        assert np.array_equal(wedge, motif_matrix_oracle(g, "wedge"))


def hub_graph():
    """300 nodes: two degree-~150 hubs sharing leaves, a 20-clique, rings
    of equal-degree nodes and isolated nodes."""
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, 152)]
    edges += [(1, v) for v in range(30, 180)]
    edges += [(v, v + 1) for v in range(2, 178, 3)]  # leaf pairs close hub triangles
    clique = range(180, 200)
    edges += [(u, v) for u in clique for v in clique if u < v]
    edges += [(0, v) for v in range(180, 190)]  # hub into the clique
    for start in range(200, 270, 5):  # 5-rings: degree-2 ties, no triangle
        edges += [(start + i, start + (i + 1) % 5) for i in range(5)]
    edges += [(270, 271), (271, 272), (272, 270)]  # a lone triangle of ties
    return Graph(300, edges)  # 273..299 isolated


def test_triangle_kernels_on_hub_graph():
    g = hub_graph()
    A = build_adjacency(g)
    dense = A.toarray()
    common = (dense @ dense) * dense
    expected = common + np.diag(common.sum(axis=1) / 2)
    assert np.array_equal(triangle_motif_matrix(A).toarray(), expected)
    assert triangle_count(g) == np.trace(dense @ dense @ dense) / 6
    assert max_degree(g) > 150


def test_triangle_kernels_on_triangle_free_and_empty_graphs(star5):
    bipartite = Graph(12, [(u, v) for u in range(5) for v in range(5, 12)])
    for g in (star5, bipartite):
        assert triangle_motif_matrix(build_adjacency(g)).nnz == 0
        assert triangle_count(g) == 0
        with pytest.warns(UserWarning, match="triangle component"):
            mix_matrices(MixRecipe.parse("edge:1,triangle:1"), g)
    for n in (0, 4):
        empty = Graph(n, np.zeros((0, 2), dtype=np.int64))
        assert triangle_count(empty) == 0
        assert triangle_motif_matrix(build_adjacency(empty)).shape == (n, n)


def test_motif_matrices_symmetric_integer(rng):
    g = random_graph(rng, 20, 0.3)
    for M in (triangle_motif_matrix(build_adjacency(g)),
              wedge_motif_matrix(build_adjacency(g))):
        check_symmetric(M)
        assert np.all(M.data >= 0)
        assert np.all(M.data == np.round(M.data))


def test_triangle_zero_preservation(rng):
    for _ in range(5):
        g = random_graph(rng, 20, 0.25)
        A = build_adjacency(g).toarray()
        M = triangle_motif_matrix(build_adjacency(g)).toarray()
        off = ~np.eye(g.n_nodes, dtype=bool)
        assert np.all(M[off][A[off] == 0] == 0)


def test_wedge_sparsity_and_support_bounds(rng):
    for _ in range(5):
        g = random_graph(rng, 22, 0.25)
        A = build_adjacency(g)
        W = wedge_motif_matrix(A)
        assert W.nnz <= 2 * g.n_edges * max_degree(g)
        dense_A = A.toarray()
        reach = dense_A + dense_A @ dense_A
        assert np.all(reach[W.toarray() != 0] != 0)


@pytest.mark.parametrize("seed", range(3))
def test_wedge_nnz_without_forming_w(seed):
    # W is 0 on all four entries of an isolated edge. Each sample is also
    # checked with two isolated edges added, and a two-edge path whose
    # ends have degree 1 but whose edges are not isolated.
    rng = np.random.default_rng(seed)
    for n, p in [(2, 1.0), (12, 0.05), (30, 0.04), (40, 0.1), (25, 0.4)] * 4:
        g = random_graph(rng, n, p)
        extra = [(n, n + 1), (n + 2, n + 3), (n + 4, n + 5), (n + 5, n + 6)]
        for graph in (g, Graph(n + 7, np.vstack([g.edges.reshape(-1, 2), extra]))):
            A = build_adjacency(graph)
            assert wedge_motif_nnz(A, triangle_motif_matrix(A)) == wedge_motif_matrix(A).nnz
    isolated = build_adjacency(Graph(4, [(0, 1), (2, 3)]))
    assert wedge_motif_nnz(isolated, triangle_motif_matrix(isolated)) == 0


def test_builders_return_frozen_canonical_csr(rng):
    # run_protocol shares one mixed operator across threads, so every
    # builder must hand out read-only canonical CSR, and the operator
    # only read-only arrays.
    g = random_graph(rng, 20, 0.3)
    A = build_adjacency(g)
    mixed = mix_matrices(MixRecipe.parse("edge:8,triangle:1,wedge:2"), g)
    assert not mixed.s.flags.writeable
    built = [
        A,
        triangle_motif_matrix(A),
        wedge_motif_matrix(A),
        normalize_symmetric(A, add_self_loops=True),
        mixed.P,
        mixed.A_out,
        mixed.to_scipy(),
    ]
    for M in built:
        assert sp.isspmatrix_csr(M)
        for a in (M.data, M.indices, M.indptr):
            assert not a.flags.writeable
        # row-major keys strictly increase: sorted indices, no duplicates
        rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
        assert np.all(np.diff(rows * M.shape[1] + M.indices) > 0)
        assert np.all(M.data != 0)


@pytest.mark.parametrize("recipe", ["edge:8,triangle:1,wedge:2", "edge:1", "wedge:1"])
def test_to_scipy_rows_is_a_row_block(rng, recipe):
    # S's rows as one CSR, the first hop of a CSR X: each row sums the
    # same terms in the same order as in the whole of S.
    mixed = mix_matrices(MixRecipe.parse(recipe), random_graph(rng, 20, 0.3))
    rows = np.array([0, 3, 4, 11, 19])
    block = mixed.to_scipy(rows)
    assert block.shape == (5, 20) and block.has_canonical_format
    assert not block.data.flags.writeable
    assert np.array_equal(block.toarray(), mixed.to_scipy()[rows].toarray())


# ------------------------------------------------------- brute-force oracle

def oracle_instances(g, motif):
    # each instance adds 1 to the diagonal entries of its 3 nodes
    return np.trace(motif_matrix_oracle(g, motif)) / 3


def test_enumerate_triangle_k3_k4(k3, k4):
    assert oracle_instances(k3, "triangle") == 1
    assert oracle_instances(k4, "triangle") == 4


def test_enumerate_wedge_k4(k4):
    assert oracle_instances(k4, "wedge") == 12


def test_enumerate_counts_by_subgraph_not_bijection(k3):
    # K3 holds 3 wedge subgraphs; per-bijection counting would give 6
    assert oracle_instances(k3, "wedge") == 3


def test_enumerate_instance_edges_exist_in_host(rng):
    # a counted pair shares a host triangle (an edge) or a host wedge
    # (an edge or a common neighbor)
    g = random_graph(rng, 12, 0.4)
    A = build_adjacency(g).toarray()
    off = ~np.eye(g.n_nodes, dtype=bool)
    triangle = motif_matrix_oracle(g, "triangle")
    assert np.all(A[off][triangle[off] != 0] == 1)
    wedge = motif_matrix_oracle(g, "wedge")
    assert np.all((A + A @ A)[off][wedge[off] != 0] != 0)


def test_oracle_cap():
    g = Graph(DEFAULT_ORACLE_CAP + 1, [(0, 1)])
    with pytest.raises(MotifError, match="optimized"):
        motif_matrix_oracle(g, "triangle")


def test_oracle_empty_graph():
    g = Graph(4, np.empty((0, 2), dtype=np.int64))
    assert np.array_equal(motif_matrix_oracle(g, "wedge"), np.zeros((4, 4)))


def test_oracle_covers_only_the_two_motifs(k3):
    with pytest.raises(MotifError, match="triangle"):
        motif_matrix_oracle(k3, "edge")
    with pytest.raises(ValueError):
        motif_matrix_oracle(k3, "fourcycle")


# ------------------------------------------------------------ normalization

def test_normalize_identity():
    I = freeze_csr(sp.csr_matrix(np.eye(4)))
    out = normalize_symmetric(I, add_self_loops=False)
    assert np.allclose(out.toarray(), np.eye(4), atol=1e-15)


def test_normalize_k3_with_self_loops(k3):
    out = normalize_symmetric(build_adjacency(k3), add_self_loops=True)
    assert np.allclose(out.toarray(), np.full((3, 3), 1 / 3), atol=1e-15)


def test_normalize_keeps_zero_rows():
    M = freeze_csr(sp.csr_matrix(np.diag([0.0, 2.0, 3.0])))
    out = normalize_symmetric(M, add_self_loops=False)
    assert out.toarray()[0].sum() == 0


def test_normalize_rejects_negative():
    M = freeze_csr(sp.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]])))
    with pytest.raises(MotifError):
        normalize_symmetric(M, add_self_loops=False)


def test_normalize_preserves_sparsity_pattern(rng):
    g = random_graph(rng, 18, 0.3)
    W = wedge_motif_matrix(build_adjacency(g))
    out = normalize_symmetric(W, add_self_loops=False)
    assert np.array_equal(W.indptr, out.indptr)
    assert np.array_equal(W.indices, out.indices)


def test_normalize_matches_dense_formula(rng):
    g = random_graph(rng, 18, 0.3)
    W = wedge_motif_matrix(build_adjacency(g)).toarray()
    r = W.sum(axis=1)
    scale = np.where(r > 0, 1 / np.sqrt(np.where(r > 0, r, 1)), 0.0)
    ref = scale[:, None] * W * scale[None, :]
    out = normalize_symmetric(freeze_csr(sp.csr_matrix(W)), False)
    assert np.allclose(out.toarray(), ref, atol=1e-14)


# ------------------------------------------------------------------ mixing

def test_mix_single_edge_component_is_gcn_matrix(rng):
    g = random_graph(rng, 12, 0.4)
    mixed = mix_matrices(MixRecipe.parse("edge:1"), g)
    ref = normalize_symmetric(build_adjacency(g), add_self_loops=True)
    assert np.allclose(mixed.to_scipy().toarray(), ref.toarray(), atol=1e-15)


def test_mix_weight_normalization(rng):
    g = random_graph(rng, 14, 0.4)
    A = build_adjacency(g)
    mix = mix_matrices(MixRecipe.parse("edge:8,triangle:1,wedge:2"), g)
    mixed = mix.to_scipy().toarray()
    ref = (
        8 / 11 * normalize_symmetric(A, True).toarray()
        + 1 / 11 * normalize_symmetric(triangle_motif_matrix(A), False).toarray()
        + 2 / 11 * normalize_symmetric(wedge_motif_matrix(A), False).toarray()
    )
    assert np.allclose(mixed, ref, atol=1e-14)
    scaled = mix_matrices(MixRecipe.parse("edge:16,triangle:2,wedge:4"), g)
    assert np.allclose(mixed, scaled.to_scipy().toarray(), atol=1e-14)


def test_mix_output_symmetric(rng):
    for _ in range(5):
        weights = rng.uniform(0.1, 5.0, size=3)
        recipe = MixRecipe(tuple(zip(("edge", "triangle", "wedge"), weights)))
        g = random_graph(rng, 15, 0.3)
        check_symmetric(mix_matrices(recipe, g).to_scipy(), 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_mix_folds_wedge_scaling_into_a_in(seed):
    # A_in = A·diag(s) keeps A's pattern, explicit zeros included, so a
    # walk reads the same rows; and A_in @ Y sums the rounded products
    # s_j·y_j of A @ (s∘Y), as long as scipy does not fuse y += a·x. A
    # graph with an isolated edge has nodes with s = 0.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 30, 0.1)
    g = Graph(32, np.vstack([g.edges.reshape(-1, 2), [(30, 31)]]))
    A = build_adjacency(g)
    mixed = mix_matrices(MixRecipe.parse("edge:8,triangle:1,wedge:2"), g)
    for M in (mixed.A_out, mixed.A_in):
        assert np.array_equal(M.indices, A.indices) and np.array_equal(M.indptr, A.indptr)
    assert np.array_equal(mixed.A_out.data, A.data)
    assert not mixed.s[30:].any() and (mixed.A_in.data == 0).any()
    Y = rng.standard_normal((32, 5))
    assert np.array_equal(mixed.A_in @ Y, A @ (mixed.s[:, None] * Y))


def test_mix_drops_all_zero_component(path3):
    with pytest.warns(UserWarning, match="triangle"):
        mixed = mix_matrices(MixRecipe.parse("edge:1,triangle:1"), path3)
    ref = normalize_symmetric(build_adjacency(path3), True)
    assert np.allclose(mixed.to_scipy().toarray(), ref.toarray(), atol=1e-15)


def test_recipe_validation():
    with pytest.raises(MotifError):
        MixRecipe(())
    with pytest.raises(MotifError):
        MixRecipe((("edge", -1.0),))
    with pytest.raises(MotifError):
        MixRecipe((("edge", 0.0), ("wedge", 0.0)))
    with pytest.raises(MotifError):
        MixRecipe.parse("edge:8,fivecycle:1")
    for bad in ("edge:nan", "edge:inf", "edge:1,wedge:inf"):
        with pytest.raises(MotifError):
            MixRecipe.parse(bad)


def test_recipe_str():
    # the short form stays wherever it is exact; the round trip itself is
    # a property in test_properties.py
    for text in ("edge:8,triangle:1,wedge:2", "edge:1", "edge:0.5,wedge:1e-07",
                 "edge:0.1234567,wedge:2"):
        assert str(MixRecipe.parse(text)) == text


# --------------------------------------------------- clustering coefficient

def test_clustering_coefficient_examples(k3, path3):
    assert clustering_coefficient(k3) == 1.0
    assert clustering_coefficient(path3) == 0.0


def test_clustering_coefficient_undefined():
    g = Graph(2, [(0, 1)])
    with pytest.raises(MotifError, match="undefined"):
        clustering_coefficient(g)


def test_counts_against_enumeration(rng):
    g = random_graph(rng, 18, 0.3)
    assert triangle_count(g) == oracle_instances(g, "triangle")
    assert wedge_count(g) == oracle_instances(g, "wedge")
