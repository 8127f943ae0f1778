"""Property tests: kernels against the brute-force oracle, the mixed
operator against the materialized mix, its symmetry and norm bound, the
restricted passes against the full ones, and the recipe text round
trip; and that a failed property test does not end the session."""

import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from motifgcn import motifs
from motifgcn.graph import Graph, build_adjacency, check_symmetric
from motifgcn.nn import keep_rows
from motifgcn.model import ModelConfig, backward, build_model, fit_plan, forward, row_plan
from motifgcn.motifs import (
    MatrixSource,
    MixRecipe,
    MotifError,
    mix_matrices,
    motif_matrix_oracle,
    normalize_symmetric,
    triangle_motif_matrix,
    wedge_motif_matrix,
)

# Derandomized so that a tier-1 run never depends on the draw.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def graphs(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, np.array([e for e, k in zip(pairs, keep) if k],
                             dtype=np.int64).reshape(-1, 2))


def empty(n):
    return Graph(n, np.empty((0, 2), dtype=np.int64))


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@PROPERTY
@given(graphs())
@example(empty(1))
@example(empty(5))
@example(star(5))
@example(complete(6))
@example(Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3)]))  # nodes 4-6 isolated
def test_kernels_equal_oracle(g):
    A = build_adjacency(g)
    assert np.array_equal(triangle_motif_matrix(A).toarray(),
                          motif_matrix_oracle(g, "triangle"))
    assert np.array_equal(wedge_motif_matrix(A).toarray(),
                          motif_matrix_oracle(g, "wedge"))


def materialized_mix(recipe, g):
    """The mix as the dense sum of w/total · normalize_symmetric(kernel(A))
    over the components that are not all zero; None when none is left."""
    A = build_adjacency(g)
    normalized = {
        MatrixSource.EDGE: lambda: normalize_symmetric(A, add_self_loops=True),
        MatrixSource.TRIANGLE: lambda: normalize_symmetric(triangle_motif_matrix(A), False),
        MatrixSource.WEDGE: lambda: normalize_symmetric(wedge_motif_matrix(A), False),
    }
    parts = [(normalized[src]().toarray(), w) for src, w in recipe.components if w]
    parts = [(M, w) for M, w in parts if M.any()]
    total = sum(w for _, w in parts)
    return sum(M * (w / total) for M, w in parts) if parts else None


RECIPE_SHAPES = (("edge",), ("wedge",), ("edge", "triangle"), ("edge", "wedge"),
                 ("edge", "triangle", "wedge"))
ALL_THREE = RECIPE_SHAPES[-1]


@PROPERTY
@given(graphs(), st.sampled_from(RECIPE_SHAPES),
       st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3), st.integers(1, 3))
@example(star(5), ALL_THREE, [8.0, 1.0, 2.0], 2)  # triangle-free: triangle dropped
@example(Graph(6, [(0, 1), (2, 3), (4, 5)]), ALL_THREE, [8.0, 1.0, 2.0], 2)  # no wedges
@example(Graph(6, [(0, 1), (2, 3), (4, 5)]), ("wedge",), [1.0, 1.0, 1.0], 1)
@example(Graph(5, [(0, 1), (2, 3), (3, 4)]), ("wedge",), [1.0, 1.0, 1.0], 2)  # rows 0, 1 zero
@example(Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3)]), ALL_THREE, [8.0, 1.0, 2.0], 3)
@example(Graph(6, [(i, (i + 1) % 6) for i in range(6)]),  # triangle-free cycle
         ("edge", "triangle"), [1.0, 4.0, 1.0], 1)
def test_mixed_operator_equals_materialized_mix(g, sources, weights, width):
    recipe = MixRecipe(tuple(zip(sources, weights)))
    ref = materialized_mix(recipe, g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero motif components are dropped
        if ref is None:
            with pytest.raises(MotifError, match="no usable"):
                mix_matrices(recipe, g)
            return
        M = mix_matrices(recipe, g)
    Y = np.random.default_rng(g.n_nodes).standard_normal((g.n_nodes, width))
    assert M.shape == ref.shape
    assert np.abs(M @ Y - ref @ Y).max() <= 1e-12
    assert np.abs(M @ Y[:, 0] - ref @ Y[:, 0]).max() <= 1e-12
    assert np.abs(M.to_scipy().toarray() - ref).max() <= 1e-12


@PROPERTY
@given(graphs(), st.floats(1e-3, 1e3), st.floats(0, 1e3), st.floats(0, 1e3))
@example(star(5), 1.0, 0.0, 0.0)  # hub row sum is 1.61, yet the norm is 1
def test_mix_symmetric_with_spectral_norm_at_most_one(g, edge, triangle, wedge):
    recipe = MixRecipe((("edge", edge), ("triangle", triangle), ("wedge", wedge)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero motif components are dropped
        M = mix_matrices(recipe, g).to_scipy()
    check_symmetric(M, 1e-12)
    assert np.abs(np.linalg.eigvalsh(M.toarray())).max() <= 1 + 1e-9


def with_features(g, sparse):
    """g with 3 features per node (a third of them 0) and 2 label classes."""
    rng = np.random.default_rng(g.n_nodes)
    X = rng.standard_normal((g.n_nodes, 3)) * (rng.random((g.n_nodes, 3)) < 0.67)
    return Graph(g.n_nodes, g.edges, features=sp.csr_matrix(X) if sparse else X,
                 labels=rng.integers(0, 2, g.n_nodes), n_classes=2)


node_lists = st.lists(st.integers(0, 11), min_size=1, max_size=6)
CHAIN = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)])  # node 8 isolated


@PROPERTY
@given(graphs(), st.sampled_from(RECIPE_SHAPES), st.integers(1, 2), st.integers(0, 1),
       st.booleans(), node_lists, node_lists, st.sampled_from([motifs.FULL_FRACTION, np.inf]))
@example(CHAIN, ALL_THREE, 2, 1, False, [0], [5, 8], np.inf)  # reach stops inside the chain
@example(CHAIN, ALL_THREE, 2, 1, True, [8], [8], np.inf)  # a train node without neighbors
@example(CHAIN, ("edge",), 2, 0, False, [2, 7], [4], np.inf)  # no wedge term
@example(Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3)]), ALL_THREE, 2, 1, True, [5, 0], [6],
         np.inf)  # nodes 4-6 isolated
@example(star(5), ALL_THREE, 2, 1, False, [0], [0], np.inf)  # the hub reaches every node
@example(star(5), ("wedge",), 2, 0, True, [3], [1, 2], motifs.FULL_FRACTION)
def test_restricted_passes_equal_full_path(g, sources, h1, h2, sparse, train, read,
                                           fraction):
    """Forward on the rows that are read, from X sliced to the rows they
    reach, and the training gradients equal the full path bit for bit,
    whether or not near-full restrictions fall back to the full path."""
    g = with_features(g, sparse)
    recipe = MixRecipe(tuple(zip(sources, [8.0, 1.0, 2.0])))
    config = ModelConfig(h1=h1, h2=h2, hidden_dim=4, recipe=recipe, seed=g.n_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero motif components are dropped
        try:
            m = build_model(config, g)
        except MotifError:  # no usable component
            return
    train = np.unique(np.array(train) % g.n_nodes)
    read = np.unique(np.array(read) % g.n_nodes)
    with mock.patch.object(motifs, "FULL_FRACTION", fraction):
        fit, grad_ops = fit_plan(m, train)
        read_plan = row_plan(m, read)

    X, y = g.features, g.labels
    assert np.array_equal(forward(m, keep_rows(X, read_plan.inputs), plan=read_plan)[read],
                          forward(m, X)[read])
    Z, tape = forward(m, X, training=True, rng=np.random.default_rng(0), with_tape=True,
                      plan=fit)
    Z_full, tape_full = forward(m, X, training=True, rng=np.random.default_rng(0),
                                with_tape=True)
    assert np.array_equal(Z[train], Z_full[train])
    for grad, grad_full in zip(backward(m, tape, y, train, operators=grad_ops),
                               backward(m, tape_full, y, train)):
        assert np.array_equal(grad, grad_full)
    for op in fit.operators + grad_ops + read_plan.operators:
        assert op.shape == m.mixed_matrix.shape and op.nnz <= m.mixed_matrix.nnz


recipes = st.lists(
    st.tuples(st.sampled_from(MatrixSource), st.floats(0, 1e6)), min_size=1, max_size=4,
).filter(lambda comps: any(w > 0 for _, w in comps)).map(lambda comps: MixRecipe(tuple(comps)))


@PROPERTY
@given(recipes)
@example(MixRecipe.parse("edge:0.1234567,wedge:2"))
def test_recipe_text_round_trip(recipe):
    assert MixRecipe.parse(str(recipe)) == recipe


FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failed_property_test_lets_later_tests_run(tmp_path):
    # Under the repo's pytest config, hypothesis reporting a failure must
    # not turn a warning into an INTERNALERROR that stops the session.
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
