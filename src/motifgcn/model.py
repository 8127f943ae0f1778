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
with its other columns removed. ``train`` walks down the GCN layers
once per split (``MixedOperator.walk``), which finds each layer's rows
and their neighbours once, and builds that split's ``Plan`` from the
walk: for each GCN layer S with the entries outside those rows or
columns removed (again a ``MixedOperator``), the rows of X the bottom
layer reads, and the split's rows, which are all that the softmax
computes and the loss and accuracy read.

Both ends of the network compute only those rows. Training dropout on
a sparse X draws only for the stored values in the input rows, each
draw keyed by the value's position, so a value is kept or dropped as
on the full path; dropout and the first product ``Hin @ W`` cost in
proportion to those values. Evaluation slices a sparse X to its input
rows once per split. Every array keeps
all N rows, with zeros where nothing is computed, and the dense
products ``Hin @ W`` run on all of them: BLAS may round a product on a
row subset differently from the same rows of the full product. A CSR
product sums each row alone, in stored order, so it rounds the same on
any rows. ``forward`` and ``backward`` run the full path when given no
plan or operators.

Each epoch's validation pass runs beside the next training step. The
pass after Adam step t and the forward and backward of step t+1 both
read the weights W_t and nothing of each other, so ``train`` hands the
pass to a one-worker helper thread and joins it before Adam step t+1,
where epoch t's early-stopping bookkeeping happens. A run that epoch t
stops throws step t+1 away, so every result is that of the sequential
loop. ``train`` keeps the sequential loop when several runs of
``_train_seeds`` already share the cores, and when the validation pass
applies S itself at its bottom layer.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .graph import UNLABELED, Graph
from .motifs import MixedOperator, MixRecipe, mix_matrices
from . import nn

__all__ = [
    "ModelConfig",
    "Model",
    "Plan",
    "TrainReport",
    "TrainingDiverged",
    "build_model",
    "forward",
    "row_plan",
    "fit_plan",
    "train",
    "evaluate",
    "run_protocol",
    "grid_search",
]

# True while ``train`` runs as one of several runs that share the cores
# (``_train_seeds`` with threads >= 2 over two runs or more). They fill
# the cores already: with the validation overlap on as well, 4
# Pubmed-shaped runs on 2 threads went from 5 % faster to 9 % slower.
_SHARED_CORES = ContextVar("shared_cores", default=False)


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


@dataclass(eq=False)  # identity equality: arrays do not compare to a bool
class Model:
    mixed_matrix: MixedOperator  # read-only, so runs on threads share it
    weights: list  # float64 arrays in forward order; layer k < h1 is a GCN layer
    config: ModelConfig


@dataclass(frozen=True, eq=False)  # identity equality, as Model
class Plan:
    """The rows one forward pass computes; None means all rows, which is
    the full path.

    Attributes:
        operators: for each GCN layer, the operator it applies in place
            of the mixed operator: S with the rows it does not compute
            removed.
        inputs: the rows of X that the bottom GCN layer reads; None for
            a dense X too, which every dense product reads whole.
        outputs: the rows of the network output that are read.
        stored: the positions of a CSR X's stored values in ``inputs``
            (``nn.stored_in``), the only ones training dropout draws for
            and keeps; found once per ``fit_plan``.
    """

    operators: list | None = None
    inputs: np.ndarray | None = None
    outputs: np.ndarray | None = None
    stored: np.ndarray | None = None


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
            with_tape: bool = False, plan: Plan = Plan()):
    """Run the network; returns Z, or (Z, tape) when with_tape is set.

    X is a dense array or a scipy sparse matrix; a sparse X stays sparse
    through the first layer's dropout and ``Hin @ W``. Dropout hits each
    layer's input and is active only in training mode. The tape holds
    each layer's (dropped-out input, dropout mask, output).

    ``plan`` (from ``row_plan`` or ``fit_plan``) names the rows that are
    read, and Z is right on its outputs only. They depend on X's input
    rows alone: training dropout keeps only those rows of a sparse X, and
    an evaluation caller may slice it to them once (``nn.keep_rows``).
    Each GCN layer applies the plan's operator, and the softmax runs on
    the outputs, leaving 0 on the other rows. Every array keeps all N
    rows, so dropout draws and the dense products ``Hin @ W`` are the
    same as on the full path. The default plan runs the full path, the
    reference the restricted one equals bit for bit on the rows it
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
    operators = [model.mixed_matrix] * h1 if plan.operators is None else plan.operators
    out = slice(None) if plan.outputs is None else plan.outputs
    for k, W in enumerate(model.weights):
        rows, at = (plan.inputs, plan.stored) if k == 0 else (None, None)
        Hin, mask = nn.dropout_forward(H, rate, rng, training, rows, at)
        # Diverged weights overflow to inf, and inf times 0 or minus inf
        # is nan, in the product or the softmax; train reports
        # TrainingDiverged.
        with np.errstate(over="ignore", invalid="ignore"):
            pre = Hin @ W
            if k < h1:
                pre = nn.spmm(operators[k], pre)
            if k == last:
                H = np.zeros_like(pre)
                H[out] = nn.softmax_rows(pre[out])
            else:
                H = nn.relu(pre)
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
    each GCN layer, S restricted to those columns (``fit_plan``); None
    applies the full operator at every layer. The bottom layer's
    ``S @ d_pre`` is then zero outside the plan's input rows, so its
    weight gradient ``Hin.T @ d_hw`` needs no row of Hin beyond them.
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

    Only the masked rows are computed, from the rows of X they reach: a
    sparse X is sliced to those rows first (``nn.keep_rows``). Raises
    ValueError when the mask is empty or names an unlabeled node."""
    idx = nn.as_index(mask)
    if idx.size == 0:
        raise ValueError("evaluate: empty mask")
    _require_labeled("evaluate: mask", labels, idx)
    plan = row_plan(model, idx, X)
    Z = forward(model, nn.keep_rows(X, plan.inputs), training=False, plan=plan)
    return _accuracy(Z, labels, idx)


def row_plan(model: Model, rows, X=None) -> Plan:
    """``forward``'s plan for an output read on ``rows``.

    The rows of X that the bottom layer reads are found for a CSR X, or
    when no X is given; a dense X is read whole by every product."""
    return _walk(model, rows, X)[0]


def fit_plan(model: Model, train_idx, X=None) -> tuple[Plan, list]:
    """``forward``'s plan and ``backward``'s operators for a loss read on
    ``train_idx``: one walk serves both passes. ``X`` is as in
    ``row_plan``; for a CSR X the plan also holds the positions of its
    stored values in the input rows, the only ones training dropout
    draws for."""
    plan, steps = _walk(model, train_idx, X)
    if plan.inputs is not None and sp.issparse(X):
        plan = replace(plan, stored=nn.stored_in(X.indptr, plan.inputs))
    return plan, [model.mixed_matrix.columns(*step) for step in steps]


def _walk(model: Model, rows, X) -> tuple[Plan, list]:
    S = model.mixed_matrix
    outputs = np.unique(rows)
    steps, inputs = S.walk(outputs, model.config.h1, inputs=X is None or sp.issparse(X))
    return Plan([S.rows(*step) for step in steps], inputs, outputs), steps


def _require_labeled(what: str, labels, idx: np.ndarray) -> None:
    unlabeled = idx[np.asarray(labels)[idx] == UNLABELED]
    if unlabeled.size:
        raise ValueError(f"{what} names unlabeled node {unlabeled[0]}")


def _accuracy(Z: np.ndarray, labels, idx: np.ndarray) -> float:
    return float(np.mean(Z[idx].argmax(axis=1) == np.asarray(labels)[idx]))


def train(config: ModelConfig, dataset, splits,
          mixed: MixedOperator | None = None):
    """Full-batch training loop. Returns (model, TrainReport).

    Deterministic given config.seed; one dropout RNG stream is drawn
    from the same seed as the weight init. ``mixed`` is the
    ``mix_matrices(config.recipe, dataset.graph)`` operator when the
    caller already holds it, else it is built here. Raises ValueError
    before the first epoch when a split is empty, an index lies outside
    [0, N), or an index names an unlabeled node.

    Epoch t's validation pass and epoch t+1's training forward and
    backward both read the weights W_t alone, so the pass runs on a
    one-worker helper thread while the step runs here. Its result is
    joined before Adam step t+1, and epoch t's bookkeeping (best epoch,
    patience) follows. When epoch t stops the run, step t+1 is thrown
    away, its dropout draws with it; its non-finite loss or error
    surfaces only when epoch t does not stop the run. So the results are
    those of running the two one after the other, which ``train`` does
    instead when several runs of ``_train_seeds`` share the cores, or
    when the validation pass applies S itself at its bottom layer: on the
    50k-node benchmark graph the overlap then measured up to 13 % slower
    per epoch (ROADMAP dead ends).
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
        _require_labeled(f"{name} split", graph.labels, idx)
    model = build_model(config, graph, mixed=mixed)
    X = graph.features
    # Each pass computes only the rows it reads: training reads the train
    # rows, evaluation the validation rows.
    fit, grad_ops = fit_plan(model, train_idx, X)
    val = row_plan(model, val_idx, X)
    rng = np.random.default_rng((config.seed, 0xD0))  # dropout stream
    X_val = nn.keep_rows(X, val.inputs)
    y = graph.labels

    W = model.weights
    m = [np.zeros_like(w) for w in W]  # Adam moment estimates
    v = [np.zeros_like(w) for w in W]

    tape = None

    def step(epoch):
        """Training loss and gradients at the current weights."""
        # The previous step's tape is released only when this forward pass
        # returns, so the pass reuses its pages. Released before the
        # validation pass, they went back to the system, and a powerlaw
        # train took 1.5 s instead of 1.2 s, with up to 4x the page faults.
        nonlocal tape
        Z, tape = forward(model, X, training=True, rng=rng, with_tape=True, plan=fit)
        loss = regularized_loss(model, Z, y, train_idx)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        return loss, backward(model, tape, y, train_idx, operators=grad_ops)

    def validation():
        Z = forward(model, X_val, training=False, plan=val)
        return nn.cross_entropy_loss(Z, y, val_idx), _accuracy(Z, y, val_idx)

    train_losses, val_losses, val_accs = [], [], []
    best_val = np.inf
    best_epoch = 0
    best_weights = None
    overlap = not _SHARED_CORES.get() and val.operators[0] is not model.mixed_matrix
    helper = ThreadPoolExecutor(1, thread_name_prefix="validation") if overlap else None
    with helper or nullcontext():
        ahead = None  # step t+1, run beside epoch t's validation pass
        for epoch in range(1, config.max_epochs + 1):
            loss, grads = step(epoch) if ahead is None else ahead.result()
            for k, g in enumerate(grads):
                W[k], m[k], v[k] = nn.adam_step(W[k], m[k], v[k], g, config.learning_rate,
                                                epoch)
            ahead = None
            if helper is not None and epoch < config.max_epochs:
                pending = helper.submit(validation)
                ahead = _settled(step, epoch + 1)
                val_loss, val_acc = pending.result()
            else:
                val_loss, val_acc = validation()
            train_losses.append(loss)
            val_losses.append(val_loss)
            val_accs.append(val_acc)

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


def _settled(fn, *args) -> Future:
    """fn(*args), run now, as a done Future holding its result or error."""
    done = Future()
    try:
        done.set_result(fn(*args))
    except Exception as exc:  # raised when the result is read, if it is
        done.set_exception(exc)
    return done


def _train_seeds(config: ModelConfig, dataset, splits, n_runs: int,
                 threads: int = 1) -> list:
    """TrainReports of seeds seed+0 ... seed+n_runs-1 in seed order, so
    independent of scheduling; the runs share one mixed operator and go to
    ``threads`` worker threads."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    mixed = mix_matrices(config.recipe, dataset.graph)
    shared = min(threads, n_runs) > 1

    def one(i):
        token = _SHARED_CORES.set(shared)  # in this worker thread's context
        try:
            return train(replace(config, seed=config.seed + i), dataset, splits, mixed=mixed)[1]
        finally:
            _SHARED_CORES.reset(token)

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
