"""Dense/sparse neural-network primitives with manual gradients.

Everything operates on float64 numpy arrays, except that the network
input may be a scipy CSR matrix (sparse bag-of-words features). There
are no bias terms anywhere. The model module assembles these into
layers computing relu or softmax of S @ H @ W or H @ W, and into the
full forward/backward pass.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .motifs import MixedOperator

__all__ = [
    "as_index",
    "glorot_init",
    "spmm",
    "relu",
    "softmax_rows",
    "cross_entropy_loss",
    "adam_step",
    "dropout_forward",
    "keep_rows",
    "stored_in",
]

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# SplitMix64: the golden-ratio increment γ and the finalizer's
# (xor-shift, multiply) rounds, then a last xor-shift.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
_CHUNK = 1 << 16  # positions hashed at a time by sparse dropout


def as_index(mask) -> np.ndarray:
    """Node indices of a boolean mask, or an index array as int64."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        return np.flatnonzero(mask)
    return mask.astype(np.int64)


def glorot_init(in_dim: int, out_dim: int, rng) -> np.ndarray:
    """Glorot/Xavier uniform init in [-s, s], s = sqrt(6 / (in + out))."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("dimensions must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    s = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-s, s, size=(in_dim, out_dim))


def spmm(S: sp.csr_matrix | MixedOperator, X: np.ndarray) -> np.ndarray:
    """Sparse @ dense product: S is a scipy sparse matrix or a
    ``motifs.MixedOperator``, anything with ``shape`` and ``@``."""
    X = np.asarray(X, dtype=np.float64)
    if S.shape[1] != X.shape[0]:
        raise ValueError(f"dimension mismatch: {S.shape[1]} vs {X.shape[0]}")
    return S @ X


def relu(X: np.ndarray) -> np.ndarray:
    return np.maximum(X, 0.0)


def softmax_rows(X: np.ndarray) -> np.ndarray:
    shifted = X - X.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_loss(Z: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean categorical cross-entropy -log Z[v, y_v] over the masked rows."""
    idx = as_index(mask)
    if idx.size == 0:
        raise ValueError("cross_entropy_loss: empty mask")
    p = np.clip(Z[idx, np.asarray(labels)[idx]], PROB_FLOOR, None)
    return float(-np.mean(np.log(p)))


def adam_step(W: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray,
              learning_rate: float, t: int):
    """Adam update with bias correction; t is 1-based. m and v are the
    moment estimates, zero before step 1. Returns the new (W, m, v)."""
    if t < 1:
        raise ValueError("Adam step index must be >= 1")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    W = W - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return W, m, v


def dropout_forward(H, rate: float, rng, training: bool, at=None):
    """Inverted dropout. Returns (output, keep-scale mask).

    The mask already folds in the 1/(1-rate) rescale, so the backward
    pass is just an elementwise multiply with it. A dense H draws
    ``rng.random(H.shape)`` and keeps each entry drawn at least ``rate``.

    For a scipy CSR H only the stored values are dropped (the
    ``sparse_dropout`` of Kipf & Welling's GCN): dropping a zero changes
    nothing. The call takes one 64-bit key from ``rng``, and the value
    stored at position p is kept iff u(key, p) >= rate, where u is the
    SplitMix64 finalizer of key + (p+1)·γ shifted right by 11 and scaled
    by 2⁻⁵³ (Steele, Lea and Flood 2014; counter-based as in Salmon et
    al. 2011). A value's fate thus depends on its key and position
    alone, not on which other values are read. The output is a CSR
    matrix on H's own ``indices`` and ``indptr`` (shared, not copied)
    whose kept values are scaled as the dense path scales them and whose
    dropped ones are stored zeros, so each row sums as H's does. A
    sparse H is only ever the network input, whose gradient is never
    formed, so it gets no mask (None).

    ``at`` holds the positions p of H's stored values, in stored order:
    their indices in the ``data`` of the X that H was sliced from
    (``keep_rows``), as ``Plan.stored`` holds them, or ``arange(H.nnz)``
    for an H that is X itself (None). A value is thus kept or dropped as
    in X, and the call costs in proportion to H's values. Raises
    ValueError when ``at`` does not hold one position per stored value.
    """
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return H, None
    scale = 1.0 / (1.0 - rate)
    if sp.issparse(H):
        if at is None:
            at = np.arange(H.nnz)
        elif at.size != H.nnz:
            raise ValueError(f"dropout positions: {at.size} for {H.nnz} stored values")
        key = rng.integers(2**64, dtype=np.uint64)
        data = H.data * (_kept(key, at, rate) * scale)
        return sp.csr_matrix((data, H.indices, H.indptr), shape=H.shape), None
    mask = (rng.random(H.shape) >= rate) * scale
    return H * mask, mask


def _kept(key: np.uint64, at: np.ndarray, rate: float) -> np.ndarray:
    """Whether each position p in ``at`` has its keyed draw u(key, p) at
    least ``rate``, as a boolean array in ``at``'s order.

    u = (z >> 11)·2⁻⁵³ >= rate holds iff z >= ceil(rate·2⁵³)·2¹¹, so the
    test is done on z itself, with no rounding. Positions are hashed
    ``_CHUNK`` at a time, so the uint64 temporaries stay in cache."""
    bound = np.uint64(math.ceil(rate * 2.0**53) << 11)
    keep = np.empty(at.size, dtype=bool)
    z = np.empty(min(at.size, _CHUNK), dtype=np.uint64)
    t = np.empty_like(z)
    for start in range(0, at.size, _CHUNK):
        p = at[start:start + _CHUNK]
        zc, tc = z[:p.size], t[:p.size]
        np.add(p, 1, out=zc, casting="unsafe")
        zc *= _GAMMA
        zc += key
        for shift, factor in _MIX:
            np.right_shift(zc, shift, out=tc)
            zc ^= tc
            zc *= factor
        np.right_shift(zc, _LAST_SHIFT, out=tc)
        zc ^= tc
        np.greater_equal(zc, bound, out=keep[start:start + p.size])
    return keep


def keep_rows(H, rows):
    """A CSR H with the values outside ``rows`` (sorted and distinct)
    removed, in H's shape; H itself when ``rows`` is None or H is dense.
    Each kept row is stored as in H, so a product sums it as H's would,
    and its values sit at ``stored_in(H.indptr, rows)`` in H."""
    if rows is None or not sp.issparse(H):
        return H
    at = stored_in(H.indptr, rows)
    indptr = np.zeros_like(H.indptr)
    indptr[rows + 1] = np.diff(H.indptr)[rows]
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((H.data[at], H.indices[at], indptr), shape=H.shape)


def stored_in(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sorted positions of the values a CSR matrix stores in ``rows``."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    # Each position is its row's start plus its rank among the row's values.
    at = np.repeat(start - (np.cumsum(count) - count), count)
    at += np.arange(at.size)
    return at
