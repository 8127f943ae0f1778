import math

import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.graph import build_adjacency, freeze_csr
from motifgcn.nn import (
    adam_step,
    cross_entropy_loss,
    dropout_forward,
    glorot_init,
    keep_rows,
    spmm,
    stored_in,
)


def test_glorot_deterministic():
    a = glorot_init(2, 3, 7)
    b = glorot_init(2, 3, 7)
    assert np.array_equal(a, b)


def test_glorot_bound():
    W = glorot_init(100, 100, 0)
    assert np.all(np.abs(W) <= math.sqrt(6 / 200))


def test_glorot_mean_near_zero():
    means = [glorot_init(1433, 16, s).mean() for s in range(10)]
    assert abs(np.mean(means)) < 0.01


def test_spmm_identity(rng):
    X = rng.standard_normal((5, 3))
    I = freeze_csr(sp.csr_matrix(np.eye(5)))
    assert np.array_equal(spmm(I, X), X)


def test_spmm_k3_row_sums(k3):
    out = spmm(build_adjacency(k3), np.ones((3, 1)))
    assert np.array_equal(out, 2 * np.ones((3, 1)))


def test_spmm_matches_dense(rng):
    S = rng.random((20, 20))
    S = (S + S.T) * (S < 0.3)
    X = rng.standard_normal((20, 7))
    out = spmm(freeze_csr(sp.csr_matrix(S + S.T)), X)
    assert np.allclose(out, (S + S.T) @ X, atol=1e-12)


def test_spmm_shape_mismatch(k3):
    with pytest.raises(ValueError):
        spmm(build_adjacency(k3), np.ones((4, 2)))


def test_cross_entropy_one_hot_correct():
    Z = np.eye(3)
    assert cross_entropy_loss(Z, np.arange(3), np.ones(3, bool)) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform():
    Z = np.full((4, 7), 1 / 7)
    loss = cross_entropy_loss(Z, np.zeros(4, int), np.ones(4, bool))
    assert loss == pytest.approx(math.log(7), abs=1e-12)


def test_cross_entropy_matches_scalar_recomputation(rng):
    Z = rng.random((6, 4))
    Z /= Z.sum(axis=1, keepdims=True)
    y = rng.integers(0, 4, 6)
    mask = np.array([0, 2, 5])
    ref = -sum(math.log(Z[v, y[v]]) for v in mask) / mask.size
    assert cross_entropy_loss(Z, y, mask) == pytest.approx(ref, abs=1e-12)


def test_cross_entropy_empty_mask():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.eye(2), np.arange(2), np.zeros(2, bool))


def test_adam_zero_gradient_is_noop():
    W, m, v = np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
    W, m, v = adam_step(W, m, v, np.zeros((2, 2)), 0.01, t=1)
    assert np.array_equal(W, np.ones((2, 2)))


def test_adam_constant_gradient_step_magnitude():
    lr = 0.01
    W, m, v = np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))
    prev = W.copy()
    for t in range(1, 200):
        W, m, v = adam_step(W, m, v, np.full((1, 1), 3.7), lr, t)
        step = abs(W - prev)[0, 0]
        prev = W.copy()
    # with constant gradients Adam's step magnitude approaches the lr
    assert step == pytest.approx(lr, rel=1e-3)


def test_adam_descends_convex_quadratic():
    W, m, v = np.array([[4.0, -3.0]]), np.zeros((1, 2)), np.zeros((1, 2))
    losses = []
    for t in range(1, 101):
        losses.append(float(np.sum(W**2)))
        W, m, v = adam_step(W, m, v, 2 * W, 0.05, t)
    assert all(b < a for a, b in zip(losses[5:], losses[6:]))
    assert losses[-1] < 1e-2 * losses[0]


def test_dropout_rate_zero_and_inference(rng):
    H = rng.standard_normal((10, 10))
    out, mask = dropout_forward(H, 0.0, rng, training=True)
    assert out is H and mask is None
    out, mask = dropout_forward(H, 0.9, rng, training=False)
    assert out is H and mask is None


def test_dropout_survivor_fraction(rng):
    H = np.ones((400, 400))
    out, mask = dropout_forward(H, 0.5, rng, training=True)
    frac = np.count_nonzero(out) / out.size
    assert frac == pytest.approx(0.5, abs=0.02)
    # survivors are rescaled to keep the expectation
    assert np.allclose(out[out != 0], 2.0)


def next_after_key(seed):
    """The draw after one 64-bit key from a fresh generator: where a
    sparse dropout call leaves the stream."""
    ref = np.random.default_rng(seed)
    ref.bit_generator.random_raw()
    return ref.random()


def test_sparse_dropout_draws_only_stored_values():
    X = sp.random(30, 50, density=0.1, format="csr", random_state=3)
    before = (X.data.copy(), X.indices.copy(), X.indptr.copy())
    rng = np.random.default_rng(11)
    out, mask = dropout_forward(X, 0.4, rng, training=True)
    # one 64-bit key per call: the stream continues where one draw leaves it
    assert rng.random() == next_after_key(11)
    # the input's gradient is never formed, so a sparse input gets no mask
    assert mask is None
    # the output's pattern is a subset of the input's
    kept = set(zip(*out.nonzero()))
    assert kept and kept <= set(zip(*X.nonzero()))
    assert len(kept) < X.nnz
    # kept values are rescaled by 1/(1-rate)
    dense_in, dense_out = X.toarray(), out.toarray()
    rows, cols = out.nonzero()
    np.testing.assert_allclose(dense_out[rows, cols], dense_in[rows, cols] / 0.6,
                               rtol=1e-15)
    # the input is not mutated
    for a, b in zip(before, (X.data, X.indices, X.indptr)):
        assert np.array_equal(a, b)


def test_sparse_dropout_matches_dense_when_all_stored(rng):
    H = rng.random((400, 300)) + 0.1
    out_d, mask_d = dropout_forward(H, 0.3, np.random.default_rng(7), training=True)
    out_s, mask_s = dropout_forward(sp.csr_matrix(H), 0.3, np.random.default_rng(7),
                                    training=True)
    assert sp.issparse(out_s)
    assert mask_s is None
    # the two paths draw differently, but keep the same share, 4 sigma
    # apart at most, and scale the kept values alike
    bound = 4 * np.sqrt(0.3 * 0.7 / H.size)
    for out in (out_d, out_s.toarray()):
        kept = out != 0
        assert abs(np.count_nonzero(kept) / H.size - 0.7) < bound
        assert np.array_equal(out[kept], H[kept] * (1 / 0.7))


def sparse_rows_case(seed):
    """A CSR matrix with empty rows, and a sorted row set holding some of
    them, its first and last rows included."""
    rng = np.random.default_rng(seed)
    X = sp.random(40, 25, density=0.15, format="csr", random_state=seed)
    X = sp.csr_matrix(X.multiply(rng.random((40, 1)) < 0.8))  # some empty rows
    rows = np.union1d([0, 39], rng.choice(40, 15, replace=False))
    return X, rows


@pytest.mark.parametrize("seed", range(4))
def test_row_restricted_sparse_dropout_equals_full_on_those_rows(seed):
    X, rows = sparse_rows_case(seed)
    full, _ = dropout_forward(X, 0.4, np.random.default_rng(seed), training=True)
    # keep_rows removes the other rows' values without drawing
    Xr = keep_rows(X, rows)
    assert np.array_equal(Xr.toarray(), np.where(
        np.isin(np.arange(40), rows)[:, None], X.toarray(), 0.0))
    assert keep_rows(X, None) is X
    # dropout of the sliced block, keyed by its values' positions in X
    rng = np.random.default_rng(seed)
    out, mask = dropout_forward(Xr, 0.4, rng, training=True, at=stored_in(X.indptr, rows))
    assert mask is None and out.shape == X.shape
    dense_full, dense_out = full.toarray(), out.toarray()
    assert np.array_equal(dense_out[rows], dense_full[rows])
    assert not np.delete(dense_out, rows, axis=0).any()
    # one 64-bit key per call, as on the whole X
    assert rng.random() == next_after_key(seed)
    # the block is masked in place: its index arrays are shared, not copied
    assert np.shares_memory(out.indices, Xr.indices)
    assert np.shares_memory(out.indptr, Xr.indptr)


def test_sparse_dropout_refuses_positions_of_another_block():
    # The positions of a sliced block's values, given with the whole X.
    X, rows = sparse_rows_case(0)
    with pytest.raises(ValueError, match="positions"):
        dropout_forward(X, 0.4, np.random.default_rng(0), training=True,
                        at=stored_in(X.indptr, rows))


def numbered(n_rows, n_cols):
    """A CSR matrix storing every entry, each valued its position + 1."""
    return sp.csr_matrix(np.arange(1.0, n_rows * n_cols + 1).reshape(n_rows, n_cols))


def kept_positions(out, rate):
    """The positions of ``numbered``'s values that dropout kept; a
    dropped value is stored as 0."""
    kept = out.data[out.data != 0]
    return np.rint(kept * (1 - rate)).astype(np.int64) - 1


def splitmix_kept(key, positions, rate):
    """The keyed draw written out one position at a time: p is kept iff
    splitmix64(key + (p+1)·γ) >> 11, times 2⁻⁵³, is at least rate."""
    word = 2**64 - 1
    kept = []
    for p in positions:
        z = (int(key) + (int(p) + 1) * 0x9E3779B97F4A7C15) & word
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & word
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & word
        z ^= z >> 31
        if (z >> 11) * 2.0**-53 >= rate:
            kept.append(p)
    return kept


@pytest.mark.parametrize("rate", [0.25, 0.3, 0.5, 0.999])
def test_sparse_dropout_keeps_the_keyed_draws(rate):
    X = numbered(90, 50)
    rows = np.arange(3, 90, 4)
    key = np.random.default_rng(2).bit_generator.random_raw()
    for H, at in ((X, None), (keep_rows(X, rows), stored_in(X.indptr, rows))):
        out, _ = dropout_forward(H, rate, np.random.default_rng(2), training=True, at=at)
        at = range(X.nnz) if at is None else at
        assert kept_positions(out, rate).tolist() == splitmix_kept(key, at, rate)


def test_keyed_draws_span_hash_chunks():
    # 160k positions: the hash takes them in three chunks on the full path
    # and in two on half the rows, chunks that start at other positions.
    X = numbered(400, 400)
    key = np.random.default_rng(5).bit_generator.random_raw()
    full, _ = dropout_forward(X, 0.5, np.random.default_rng(5), training=True)
    rows = np.arange(1, 400, 2)
    out, _ = dropout_forward(keep_rows(X, rows), 0.5, np.random.default_rng(5), training=True,
                             at=stored_in(X.indptr, rows))
    assert np.array_equal(out[rows].toarray(), full[rows].toarray())
    sample = range(0, X.nnz, 37)
    kept = set(kept_positions(full, 0.5).tolist())
    assert [p for p in sample if p in kept] == splitmix_kept(key, sample, 0.5)


@pytest.mark.parametrize("rate", [0.3, 0.5])
def test_keyed_keep_fraction(rate):
    X = numbered(1000, 1000)
    out, _ = dropout_forward(X, rate, np.random.default_rng(0), training=True)
    kept = np.count_nonzero(out.data)
    assert abs(kept / X.nnz - (1 - rate)) < 4 * np.sqrt(rate * (1 - rate) / X.nnz)


def test_keyed_masks_are_uncorrelated():
    X = numbered(1000, 1000)

    def mask(rng):
        out, _ = dropout_forward(X, 0.5, rng, training=True)
        keep = np.zeros(X.nnz)
        keep[kept_positions(out, 0.5)] = 1.0
        return keep

    stream = np.random.default_rng(0)
    first, second = mask(stream), mask(stream)  # keys one after another
    other_seeds = [mask(np.random.default_rng(seed)) for seed in (1, 2)]
    pairs = [(first, second), (first, other_seeds[0]), (other_seeds[0], other_seeds[1]),
             (first[:-1], first[1:]), (first[:-1000], first[1000:])]  # neighbours
    for a, b in pairs:
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


@pytest.mark.parametrize("seed", range(4))
def test_keyed_draw_of_a_position_ignores_the_plan(seed):
    X = sp.random(500, 300, density=0.05, format="csr", random_state=seed)
    full, _ = dropout_forward(X, 0.5, np.random.default_rng(seed), training=True)
    rng = np.random.default_rng(seed + 100)
    for size in (0, 1, 37, 250, 499, 500):
        rows = np.sort(rng.choice(500, size, replace=False))
        out, _ = dropout_forward(keep_rows(X, rows), 0.5, np.random.default_rng(seed),
                                 training=True, at=stored_in(X.indptr, rows))
        assert np.array_equal(out[rows].toarray(), full[rows].toarray())
        assert np.count_nonzero(out.data) == np.count_nonzero(full[rows].data)


def test_dense_dropout_draws_are_unchanged(rng):
    H = rng.standard_normal((50, 40))
    out, mask = dropout_forward(H, 0.3, np.random.default_rng(4), training=True)
    drawn = np.random.default_rng(4).random(H.shape)
    assert np.array_equal(mask, (drawn >= 0.3) * (1 / 0.7))
    assert np.array_equal(out, H * mask)


@pytest.mark.parametrize("seed", range(6))
def test_csr_products_round_alike_on_any_rows(seed):
    # Each input pass reads only the rows it needs and relies on this: a
    # CSR product sums each row alone, in stored order, so removing other
    # rows changes no bit of the rows kept. It is not true of dense BLAS
    # products, which stay on all rows.
    X, rows = sparse_rows_case(seed)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((25, 7))
    Xr = keep_rows(X, rows)
    assert np.array_equal(X[rows] @ W, (X @ W)[rows])
    assert np.array_equal((Xr @ W)[rows], (X @ W)[rows])
    d = np.zeros((40, 7))
    d[rows] = rng.standard_normal((rows.size, 7))
    assert np.array_equal(Xr.T @ d, X.T @ d)
