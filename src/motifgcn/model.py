"""End-to-end model: motif-GCN layers feeding MLP layers, plus training.

A model is its mixed operator, its list of weight matrices in forward
order and its config. Layer k propagates over the mixed operator iff
k < h1; the others are per-node perceptron layers. The last layer
applies softmax (when h2 = 0 the last GCN layer takes it) and every
earlier one ReLU. Training is full-batch Adam with early stopping on
validation loss and best-epoch weight restoration.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .graph import Graph
from .motifs import MixedOperator, MixRecipe, mix_matrices
from . import nn
from .nn import OptimizerConfig

__all__ = [
    "ModelConfig",
    "Model",
    "TrainReport",
    "TrainingDiverged",
    "build_model",
    "forward",
    "train",
    "evaluate",
    "run_protocol",
    "grid_search",
]

class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelConfig:
    h1: int = 2
    h2: int = 1
    hidden_dim: int = 16
    recipe: MixRecipe = field(default_factory=lambda: MixRecipe((("edge", 1.0),)))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.h1 < 1:
            raise ValueError("h1 must be >= 1: need at least one graph-convolution layer")
        if self.h2 < 0:
            raise ValueError("h2 must be >= 0")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class Model:
    mixed_matrix: MixedOperator  # read-only, so runs on threads share it
    weights: list  # float64 arrays in forward order; layer k < h1 is a GCN layer
    config: ModelConfig


@dataclass
class TrainReport:
    train_losses: list
    val_losses: list
    val_accuracies: list
    best_epoch: int  # 1-based
    epochs_run: int
    test_accuracy: float
    wall_clock_seconds: float


def build_model(config: ModelConfig, graph: Graph,
                mixed: MixedOperator | None = None) -> Model:
    """Assemble the mixed operator and Glorot-initialized layers.

    Layer widths run feature_dim -> hidden (h1+h2-1 times) -> n_classes.
    ``mixed`` lets callers reuse one ``mix_matrices`` result across runs.
    """
    if graph.features is None or graph.labels is None:
        raise ValueError("graph must carry features and labels")
    if graph.n_classes < 1:
        raise ValueError("graph has no label classes")
    if mixed is None:
        mixed = mix_matrices(config.recipe, graph)
    n_layers = config.h1 + config.h2
    dims = [graph.feature_dim] + [config.hidden_dim] * (n_layers - 1) + [graph.n_classes]
    rng = np.random.default_rng(config.seed)
    weights = [nn.glorot_init(dims[k], dims[k + 1], rng) for k in range(n_layers)]
    return Model(mixed, weights, config)


def forward(model: Model, X, training: bool = False, rng=None,
            with_tape: bool = False):
    """Run the network; returns Z, or (Z, tape) when with_tape is set.

    X is a dense array or a scipy sparse matrix; a sparse X stays sparse
    through the first layer's dropout and ``Hin @ W``. Dropout hits each
    layer's input and is active only in training mode.
    """
    if X.shape[0] != model.mixed_matrix.shape[0]:
        raise ValueError("feature rows must match mixed-matrix dimension")
    rate = model.config.optimizer.dropout_rate
    if sp.issparse(X):
        H = sp.csr_matrix(X, dtype=np.float64)
    else:
        H = np.asarray(X, dtype=np.float64)
    h1, last = model.config.h1, len(model.weights) - 1
    tape = []
    for k, W in enumerate(model.weights):
        Hin, mask = nn.dropout_forward(H, rate, rng, training)
        pre = Hin @ W
        if k < h1:
            pre = nn.spmm(model.mixed_matrix, pre)
        H = nn.softmax_rows(pre) if k == last else nn.relu(pre)
        tape.append((Hin, mask, pre, H))
    return (H, tape) if with_tape else H


def backward(model: Model, tape, labels: np.ndarray, train_idx: np.ndarray):
    """Analytic gradients of the masked cross-entropy + L2 term w.r.t. every W.

    The softmax output layer and the loss are fused: the pre-activation
    gradient on masked rows is (Z - onehot(y)) / |mask|. The gradient
    with respect to the network input is never needed, so the pass stops
    at the first layer's weight gradient. Every layer below the output
    is ReLU.
    """
    if len(tape) != len(model.weights):
        raise ValueError("tape length does not match layer count")
    Z = tape[-1][3]
    n_mask = train_idx.size
    d_pre = np.zeros_like(Z)
    d_pre[train_idx] = Z[train_idx]
    d_pre[train_idx, labels[train_idx]] -= 1.0
    d_pre /= n_mask

    grads = [None] * len(model.weights)
    for k in range(len(model.weights) - 1, -1, -1):
        Hin, mask, _, _ = tape[k]
        # pre = S (Hin W) with S symmetric, so dW = Hin^T (S dPre);
        # an MLP layer has pre = Hin W and dW = Hin^T dPre.
        if k < model.config.h1:
            d_hw = nn.spmm(model.mixed_matrix, d_pre)
        else:
            d_hw = d_pre
        grads[k] = Hin.T @ d_hw
        if k == 0:
            break
        d_hin = d_hw @ model.weights[k].T
        if mask is not None:
            d_hin = d_hin * mask
        d_pre = d_hin * (tape[k - 1][2] > 0)
    wd = model.config.optimizer.weight_decay
    if wd:
        grads[0] = grads[0] + wd * model.weights[0]
    return grads


def regularized_loss(model: Model, Z: np.ndarray, labels, mask_idx) -> float:
    """Cross-entropy plus the L2 penalty on the first layer."""
    loss = nn.cross_entropy_loss(Z, labels, mask_idx)
    wd = model.config.optimizer.weight_decay
    if wd:
        # Diverged weights overflow to inf; train reports TrainingDiverged.
        with np.errstate(over="ignore"):
            loss += 0.5 * wd * float(np.sum(model.weights[0] ** 2))
    return loss


def evaluate(model: Model, X, labels: np.ndarray, mask) -> float:
    """Fraction of masked nodes whose argmax prediction matches the label."""
    idx = nn.as_index(mask)
    if idx.size == 0:
        raise ValueError("evaluate: empty mask")
    return _accuracy(forward(model, X, training=False), labels, idx)


def _accuracy(Z: np.ndarray, labels, idx: np.ndarray) -> float:
    return float(np.mean(Z[idx].argmax(axis=1) == np.asarray(labels)[idx]))


def train(config: ModelConfig, dataset, splits,
          mixed: MixedOperator | None = None):
    """Full-batch training loop. Returns (model, TrainReport).

    Deterministic given config.seed; one dropout RNG stream is drawn
    from the same seed as the weight init. ``mixed`` is the
    ``mix_matrices(config.recipe, dataset.graph)`` operator when the
    caller already holds it, else it is built here. Raises ValueError
    before the first epoch when a split is empty or an index lies outside
    [0, N).
    """
    graph = dataset.graph
    t0 = time.perf_counter()
    train_idx = nn.as_index(splits.train)
    val_idx = nn.as_index(splits.validation)
    test_idx = nn.as_index(splits.test)
    for name, idx in (("train", train_idx), ("validation", val_idx), ("test", test_idx)):
        if idx.size == 0:
            raise ValueError(f"{name} split is empty")
        if idx.min() < 0 or idx.max() >= graph.n_nodes:
            raise ValueError(f"{name} split index out of range [0, {graph.n_nodes})")
    model = build_model(config, graph, mixed=mixed)
    rng = np.random.default_rng((config.seed, 0xD0))  # dropout stream
    X = graph.features
    y = graph.labels

    W = model.weights
    m = [np.zeros_like(w) for w in W]  # Adam moment estimates
    v = [np.zeros_like(w) for w in W]
    train_losses, val_losses, val_accs = [], [], []
    best_val = np.inf
    best_epoch = 0
    best_weights = None
    for epoch in range(1, config.max_epochs + 1):
        Z, tape = forward(model, X, training=True, rng=rng, with_tape=True)
        loss = regularized_loss(model, Z, y, train_idx)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        grads = backward(model, tape, y, train_idx)
        for k, g in enumerate(grads):
            W[k], m[k], v[k] = nn.adam_step(W[k], m[k], v[k], g, config.optimizer, epoch)

        Z_eval = forward(model, X, training=False)
        val_loss = nn.cross_entropy_loss(Z_eval, y, val_idx)
        train_losses.append(loss)
        val_losses.append(val_loss)
        val_accs.append(_accuracy(Z_eval, y, val_idx))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_weights = [w.copy() for w in W]
        elif epoch - best_epoch >= config.patience:
            break

    model.weights = best_weights
    test_acc = evaluate(model, X, y, test_idx)
    report = TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        val_accuracies=val_accs,
        best_epoch=best_epoch,
        epochs_run=len(train_losses),
        test_accuracy=test_acc,
        wall_clock_seconds=time.perf_counter() - t0,
    )
    return model, report


def run_protocol(config: ModelConfig, dataset, splits, n_runs: int,
                 threads: int = 1):
    """Repeat training with seeds seed+0 ... seed+n_runs-1 on ``threads``
    worker threads.

    Returns {"mean", "max", "std", "accuracies"}, where std is the
    population standard deviation (np.std); results are merged by run
    index so the output is independent of scheduling.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    mixed = mix_matrices(config.recipe, dataset.graph)

    def one(i):
        cfg = replace(config, seed=config.seed + i)
        _, report = train(cfg, dataset, splits, mixed=mixed)
        return report.test_accuracy

    with ThreadPoolExecutor(max_workers=threads) as pool:
        accs = list(pool.map(one, range(n_runs)))
    return {
        "mean": float(np.mean(accs)),
        "max": float(np.max(accs)),
        "std": float(np.std(accs)),
        "accuracies": accs,
    }


def grid_search(dataset, splits, ratio_grid, base_config: ModelConfig,
                n_seeds: int = 5):
    """Pick the recipe with the best mean validation accuracy.

    A run's score is the validation accuracy of its restored best-epoch
    weights. Scoring never touches the test split. Ties break toward the
    earlier grid entry.
    """
    if not ratio_grid:
        raise ValueError("ratio grid is empty")
    rows = []
    for recipe in ratio_grid:
        cfg_r = replace(base_config, recipe=recipe)
        mixed = mix_matrices(recipe, dataset.graph)
        scores = []
        for s in range(n_seeds):
            cfg = replace(cfg_r, seed=base_config.seed + s)
            _, report = train(cfg, dataset, splits, mixed=mixed)
            scores.append(report.val_accuracies[report.best_epoch - 1])
        rows.append({"recipe": str(recipe), "val_accuracy_mean": float(np.mean(scores)),
                     "val_accuracies": scores})
    best_i = int(np.argmax([r["val_accuracy_mean"] for r in rows]))
    return ratio_grid[best_i], rows
