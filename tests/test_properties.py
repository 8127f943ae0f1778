"""Property tests: kernels against the brute-force oracle, the mixed
operator's symmetry and norm bound, and the recipe text round trip."""

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from motifgcn.graph import Graph, build_adjacency, check_symmetric
from motifgcn.motifs import (
    MatrixSource,
    MixRecipe,
    mix_matrices,
    motif_matrix_oracle,
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


@PROPERTY
@given(graphs(), st.floats(1e-3, 1e3), st.floats(0, 1e3), st.floats(0, 1e3))
@example(star(5), 1.0, 0.0, 0.0)  # hub row sum is 1.61, yet the norm is 1
def test_mix_symmetric_with_spectral_norm_at_most_one(g, edge, triangle, wedge):
    recipe = MixRecipe((("edge", edge), ("triangle", triangle), ("wedge", wedge)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero motif components are dropped
        M = mix_matrices(recipe, g)
    check_symmetric(M, 1e-12)
    assert np.abs(np.linalg.eigvalsh(M.toarray())).max() <= 1 + 1e-9


recipes = st.lists(
    st.tuples(st.sampled_from(MatrixSource), st.floats(0, 1e6)), min_size=1, max_size=4,
).filter(lambda comps: any(w > 0 for _, w in comps)).map(lambda comps: MixRecipe(tuple(comps)))


@PROPERTY
@given(recipes)
@example(MixRecipe.parse("edge:0.1234567,wedge:2"))
def test_recipe_text_round_trip(recipe):
    assert MixRecipe.parse(str(recipe)) == recipe
