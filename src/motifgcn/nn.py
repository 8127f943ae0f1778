"""Dense/sparse neural-network primitives with manual gradients.

Everything operates on float64 numpy arrays, except that the network
input may be a scipy CSR matrix (sparse bag-of-words features). There
are no bias terms anywhere. The model module assembles these into
layers computing relu or softmax of S @ H @ W or H @ W, and into the
full forward/backward pass.
"""

from __future__ import annotations

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
]

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


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
    """Sparse @ dense product: S is a scipy sparse matrix, the model's
    ``motifs.MixedOperator`` or a restriction of it, anything with
    ``shape`` and ``@``."""
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


def dropout_forward(H, rate: float, rng, training: bool):
    """Inverted dropout. Returns (output, keep-scale mask).

    The mask already folds in the 1/(1-rate) rescale, so the backward
    pass is just an elementwise multiply with it.

    For a scipy CSR H only the stored values are dropped, one draw
    each (the ``sparse_dropout`` of Kipf & Welling's GCN): dropping a
    zero changes nothing. The output is a new CSR matrix holding the
    kept values, scaled as the dense path scales them. A sparse H is
    only ever the network input, whose gradient is never formed, so it
    gets no mask (None). With every value stored, the draws and the
    output equal those of the dense path.
    """
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return H, None
    scale = 1.0 / (1.0 - rate)
    if sp.issparse(H):
        # Integer gathers are several times faster than boolean indexing;
        # row r of the output starts at the count of kept values before
        # H.indptr[r].
        kept = np.flatnonzero(rng.random(H.nnz) >= rate)
        out = sp.csr_matrix(
            (H.data[kept] * scale, H.indices[kept], np.searchsorted(kept, H.indptr)),
            shape=H.shape,
        )
        return out, None
    mask = (rng.random(H.shape) >= rate) * scale
    return H * mask, mask
