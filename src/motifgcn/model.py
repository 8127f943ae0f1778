"""End-to-end model: motif-GCN layers feeding MLP layers, plus training.

A model is its mixed operator, its list of weight matrices in forward
order and its config. Layer k propagates over the mixed operator iff
k < h1; the others are per-node perceptron layers. The last layer
applies softmax (when h2 = 0 the last GCN layer takes it) and every
earlier one ReLU. Training is full-batch Adam with early stopping on
validation loss and best-epoch weight restoration.

Each pass computes only the rows it reads, as GraphSAGE computes each
layer on the neighbourhood sets its batch reaches (Hamilton, Ying and
Leskovec 2017, Algorithm 2), here for the full batch. The last GCN
layer computes the train rows in the training forward pass, the
validation rows in the evaluation pass and the test rows in the final
``evaluate``; an MLP layer needs the rows of the layer above it, and a
lower GCN layer the rows S reaches from those. In backward, the
gradient at the last GCN layer is nonzero on the train rows only and
spreads by the same hops going down, so each GCN layer applies S
restricted to those columns. ``train`` walks down the GCN layers once
per split (``MixedOperator.walk``), which finds each layer's rows and
their neighbours once, and builds that split's restricted operators
from the walk. Every array keeps all N rows, with zeros where nothing
is computed, so dropout draws and the dense products round as on the
full path, which ``forward`` and ``backward`` run when given no
operators.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .graph import Graph
from .motifs import MixedOperator, MixRecipe, mix_matrices
from . import nn

__all__ = [
    "ModelConfig",
    "Model",
    "TrainReport",
    "TrainingDiverged",
    "build_model",
    "forward",
    "row_operators",
    "fit_operators",
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
    # Adam and regularization, as in the standard GCN recipe.
    learning_rate: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4  # L2 on the first layer only
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be >= 0 and finite")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")


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
            with_tape: bool = False, operators=None):
    """Run the network; returns Z, or (Z, tape) when with_tape is set.

    X is a dense array or a scipy sparse matrix; a sparse X stays sparse
    through the first layer's dropout and ``Hin @ W``. Dropout hits each
    layer's input and is active only in training mode. The tape holds
    each layer's (dropped-out input, dropout mask, output).

    ``operators`` holds, for each GCN layer k, the operator that layer
    applies in place of the mixed operator: ``row_operators`` restricts
    each to the rows that are read, so Z is right on those rows only.
    Every array keeps all N rows, with zeros where nothing is computed,
    so dropout draws and the dense products ``Hin @ W`` are the same as
    on the full path. None applies the full operator at every layer, the
    reference the restricted path equals bit for bit on the rows it
    computes.
    """
    if X.shape[0] != model.mixed_matrix.shape[0]:
        raise ValueError("feature rows must match mixed-matrix dimension")
    rate = model.config.dropout
    if sp.issparse(X):
        H = sp.csr_matrix(X, dtype=np.float64)
    else:
        H = np.asarray(X, dtype=np.float64)
    h1, last = model.config.h1, len(model.weights) - 1
    tape = []
    for k, W in enumerate(model.weights):
        Hin, mask = nn.dropout_forward(H, rate, rng, training)
        # Diverged weights overflow to inf; train reports TrainingDiverged.
        with np.errstate(over="ignore"):
            pre = Hin @ W
        if k < h1:
            pre = nn.spmm(model.mixed_matrix if operators is None else operators[k], pre)
        H = nn.softmax_rows(pre) if k == last else nn.relu(pre)
        tape.append((Hin, mask, H))
    return (H, tape) if with_tape else H


def backward(model: Model, tape, labels: np.ndarray, train_idx: np.ndarray,
             operators=None):
    """Analytic gradients of the masked cross-entropy + L2 term w.r.t. every W.

    The softmax output layer and the loss are fused: the pre-activation
    gradient on masked rows is (Z - onehot(y)) / |mask|. The gradient
    with respect to the network input is never needed, so the pass stops
    at the first layer's weight gradient. Every layer below the output
    is ReLU.

    ``d_pre`` is nonzero only on the train rows at the last GCN layer,
    and on the rows S reaches from those one GCN layer down: the rows
    ``forward`` computes for the train rows. ``operators`` holds, for
    each GCN layer, S restricted to those columns (``fit_operators``);
    None applies the full operator at every layer.
    """
    if len(tape) != len(model.weights):
        raise ValueError("tape length does not match layer count")
    Z = tape[-1][2]
    n_mask = train_idx.size
    d_pre = np.zeros_like(Z)
    d_pre[train_idx] = Z[train_idx]
    d_pre[train_idx, labels[train_idx]] -= 1.0
    d_pre /= n_mask

    grads = [None] * len(model.weights)
    for k in range(len(model.weights) - 1, -1, -1):
        Hin, mask, _ = tape[k]
        # pre = S (Hin W) with S symmetric, so dW = Hin^T (S dPre);
        # an MLP layer has pre = Hin W and dW = Hin^T dPre.
        if k < model.config.h1:
            d_hw = nn.spmm(model.mixed_matrix if operators is None else operators[k], d_pre)
        else:
            d_hw = d_pre
        grads[k] = Hin.T @ d_hw
        if k == 0:
            break
        d_hin = d_hw @ model.weights[k].T
        if mask is not None:
            d_hin = d_hin * mask
        d_pre = d_hin * (tape[k - 1][2] > 0)
    wd = model.config.weight_decay
    if wd:
        grads[0] = grads[0] + wd * model.weights[0]
    return grads


def regularized_loss(model: Model, Z: np.ndarray, labels, mask_idx) -> float:
    """Cross-entropy plus the L2 penalty on the first layer."""
    loss = nn.cross_entropy_loss(Z, labels, mask_idx)
    wd = model.config.weight_decay
    if wd:
        # Diverged weights overflow to inf; train reports TrainingDiverged.
        with np.errstate(over="ignore"):
            loss += 0.5 * wd * float(np.sum(model.weights[0] ** 2))
    return loss


def evaluate(model: Model, X, labels: np.ndarray, mask) -> float:
    """Fraction of masked nodes whose argmax prediction matches the label.
    Only the masked rows are computed."""
    idx = nn.as_index(mask)
    if idx.size == 0:
        raise ValueError("evaluate: empty mask")
    Z = forward(model, X, training=False, operators=row_operators(model, idx))
    return _accuracy(Z, labels, idx)


def row_operators(model: Model, rows) -> list:
    """``forward``'s operators for an output read on ``rows``."""
    S = model.mixed_matrix
    return [S.rows(*step) for step in S.walk(np.unique(rows), model.config.h1)]


def fit_operators(model: Model, train_idx) -> tuple[list, list]:
    """``forward``'s and ``backward``'s operators for a loss read on
    ``train_idx``: one walk serves both passes."""
    S = model.mixed_matrix
    steps = S.walk(np.unique(train_idx), model.config.h1)
    return [S.rows(*step) for step in steps], [S.columns(*step) for step in steps]


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
    train_idx = nn.as_index(splits.train)
    val_idx = nn.as_index(splits.validation)
    test_idx = nn.as_index(splits.test)
    for name, idx in (("train", train_idx), ("validation", val_idx), ("test", test_idx)):
        if idx.size == 0:
            raise ValueError(f"{name} split is empty")
        if idx.min() < 0 or idx.max() >= graph.n_nodes:
            raise ValueError(f"{name} split index out of range [0, {graph.n_nodes})")
    model = build_model(config, graph, mixed=mixed)
    # Each pass computes only the rows it reads: training reads the train
    # rows, evaluation the validation rows.
    fit_ops, grad_ops = fit_operators(model, train_idx)
    val_ops = row_operators(model, val_idx)
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
        Z, tape = forward(model, X, training=True, rng=rng, with_tape=True,
                          operators=fit_ops)
        loss = regularized_loss(model, Z, y, train_idx)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        grads = backward(model, tape, y, train_idx, operators=grad_ops)
        for k, g in enumerate(grads):
            W[k], m[k], v[k] = nn.adam_step(W[k], m[k], v[k], g, config.learning_rate, epoch)

        Z_eval = forward(model, X, training=False, operators=val_ops)
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
    )
    return model, report


def _train_seeds(config: ModelConfig, dataset, splits, n_runs: int,
                 threads: int = 1) -> list:
    """TrainReports of seeds seed+0 ... seed+n_runs-1 in seed order, so
    independent of scheduling; the runs share one mixed operator and go to
    ``threads`` worker threads."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    mixed = mix_matrices(config.recipe, dataset.graph)

    def one(i):
        return train(replace(config, seed=config.seed + i), dataset, splits, mixed=mixed)[1]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(n_runs)))


def run_protocol(config: ModelConfig, dataset, splits, n_runs: int,
                 threads: int = 1):
    """Test accuracies of ``_train_seeds`` as {"mean", "max", "std",
    "accuracies"}, where std is the population standard deviation (np.std)."""
    reports = _train_seeds(config, dataset, splits, n_runs, threads)
    accs = [r.test_accuracy for r in reports]
    return {
        "mean": float(np.mean(accs)),
        "max": float(np.max(accs)),
        "std": float(np.std(accs)),
        "accuracies": accs,
    }


def grid_search(dataset, splits, ratio_grid, base_config: ModelConfig, *,
                n_seeds: int):
    """Pick the recipe with the best mean validation accuracy over seeds
    seed+0 ... seed+n_seeds-1.

    A run's score is the validation accuracy of its restored best-epoch
    weights. Scoring never touches the test split. Ties break toward the
    earlier grid entry.
    """
    if not ratio_grid:
        raise ValueError("ratio grid is empty")
    rows = []
    for recipe in ratio_grid:
        reports = _train_seeds(replace(base_config, recipe=recipe), dataset, splits,
                               n_seeds)
        scores = [r.val_accuracies[r.best_epoch - 1] for r in reports]
        rows.append({"recipe": str(recipe), "val_accuracy_mean": float(np.mean(scores)),
                     "val_accuracies": scores})
    best_i = int(np.argmax([r["val_accuracy_mean"] for r in rows]))
    return ratio_grid[best_i], rows
