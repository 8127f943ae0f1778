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
with its other columns removed. ``split_plans`` walks down the GCN
layers once per split (``MixedOperator.walk``), which finds each layer's
rows and their neighbours once, and builds that split's ``Plan`` from
the walk: everything one pass reads. That is, for each GCN layer, S
with the entries outside those rows or columns removed (again a
``MixedOperator``), the input the pass reads, and the split's rows,
which are all that the softmax computes and the loss and accuracy read.
``forward`` runs one path for every plan: each layer is ``Hin @ W``,
followed by the plan's operator at the GCN layers.

Both ends of the network compute only those rows. A plan's input is a
sparse X sliced once to the rows its bottom layer reads
(``nn.keep_rows``). Training dropout masks that fixed block, each draw
keyed by the value's position in X, so a value is kept or dropped as on
the full path, and stays stored as a zero when dropped: a zero term
leaves a finite sum as it was. Dropout and the first product
``Hin @ W`` cost in proportion to those values. Every array above the
input keeps all N rows, with zeros where nothing is computed, and the
dense products ``Hin @ W`` run on all of them: BLAS may round a product
on a row subset differently from the same rows of the full product. A
CSR product sums each row alone, in stored order, so it rounds the same
on any rows. ``forward`` and ``backward`` run the full path when given
no plan or operators, and training and the final ``evaluate`` equal it
bit for bit.

Evaluation applies no dropout, so the bottom GCN layer is linear in X.
The validation plan's input is the first hop ``(S @ X)[R]`` of the rows
R that layer computes (``eval_plan``) when multiplying it by W0 reads
no more X values than the bottom layer reads without it; its bottom
operator then places row i of the product at row R[i]. Validation losses
then equal the full path to within about 1 ulp, not bit for bit;
whether or not the restrictions fall back to S, it forms the same first
hop, so reports stay bit-identical. The final ``evaluate`` runs once,
so it reads X whole.

The plans depend on the mixed operator, h1, X and the splits, not on
the seed. A lone ``train`` call builds them itself; each
``run_protocol`` call, and each ``grid_search`` recipe, builds them
once and shares them, read-only, across its seeds and threads.

Each epoch runs on the calling thread: the training step, its Adam
update, then the validation pass on the updated weights and the
early-stopping bookkeeping.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .graph import UNLABELED, Graph, freeze_csr
from .motifs import MixedOperator, MixRecipe, mix_matrices
from . import nn

__all__ = [
    "ModelConfig",
    "Model",
    "Plan",
    "SplitPlans",
    "TrainReport",
    "TrainingDiverged",
    "build_model",
    "forward",
    "eval_plan",
    "fit_plan",
    "split_plans",
    "train",
    "evaluate",
    "run_protocol",
    "grid_search",
]


def _read_only(*arrays) -> None:
    for a in arrays:
        if sp.issparse(a):
            _read_only(a.data, a.indices, a.indptr)
        elif a is not None:
            a.flags.writeable = False


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
    """What one forward pass reads; None means all of it, which is the
    full path. Its arrays are read-only, so threads may share it.

    Attributes:
        operators: for each GCN layer, the operator it applies in place
            of the mixed operator: S with the rows it does not compute
            removed. A first-hop plan's bottom operator is instead the
            row placement E_R (``eval_plan``).
        inputs: the rows of X that the bottom GCN layer reads; None for
            a dense X too, which every dense product reads whole, and
            for a first-hop plan, which reads no row of X.
        outputs: the rows of the network output that are read.
        stored: the positions in a CSR X of its values in ``inputs``
            (``nn.stored_in``), in the order X sliced to ``inputs``
            stores them: the keys of training dropout. Found once per
            ``fit_plan``.
        X: the input the pass reads: X with the rows outside ``inputs``
            removed (``nn.keep_rows``), X itself, or the first hop of
            ``eval_plan``. None for a plan that is given X whole, as
            ``evaluate``'s is.
        grad_operators: ``backward``'s operators for a ``fit_plan``:
            for each GCN layer, S with the columns that ``operators``
            does not compute removed.
    """

    operators: list | None = None
    inputs: np.ndarray | None = None
    outputs: np.ndarray | None = None
    stored: np.ndarray | None = None
    X: np.ndarray | sp.csr_matrix | None = None
    grad_operators: list | None = None

    def __post_init__(self):
        _read_only(self.inputs, self.outputs, self.stored, self.X)


@dataclass(frozen=True, eq=False)  # identity equality, as Plan
class SplitPlans:
    """What ``train`` builds for its splits before the first epoch
    (``split_plans``). It is a function of the mixed operator, h1, X and
    the splits alone, so the runs of every seed may share it; its arrays
    are read-only.

    Attributes:
        mixed, h1, features, splits: what the plans were built for.
        train, validation, test: the checked split indices.
        fit: ``fit_plan`` of the train rows.
        val: ``eval_plan`` of the validation rows.
    """

    mixed: MixedOperator
    h1: int
    features: np.ndarray | sp.csr_matrix
    splits: object
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    fit: Plan
    val: Plan

    def __post_init__(self):
        _read_only(self.train, self.validation, self.test)


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
    _check_graph(graph)
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

    ``plan`` (from ``eval_plan`` or ``fit_plan``) names what is read,
    and Z is right on its outputs only. X is then the plan's ``X``; a
    training pass on a ``fit_plan`` of a CSR X keys each value's dropout
    by its position in the whole X, the plan's ``stored``. Each layer is
    ``Hin @ W``, and each GCN layer then applies the plan's operator;
    the softmax runs on the outputs, leaving 0 on the other rows. Every
    array above the input keeps all N rows, so dropout draws and the
    dense products ``Hin @ W`` are the same as on the full path. The
    default plan runs the full path, the reference the restricted one
    equals bit for bit on the rows it computes; a first-hop plan equals
    it to rounding. Raises ValueError when X's rows do not match the
    bottom operator's columns, as for a whole X given to a first-hop
    plan.
    """
    h1, last = model.config.h1, len(model.weights) - 1
    operators = [model.mixed_matrix] * h1 if plan.operators is None else plan.operators
    if X.shape[0] != operators[0].shape[1]:
        raise ValueError("feature rows must match the bottom operator's columns")
    rate = model.config.dropout
    if sp.issparse(X):
        H = sp.csr_matrix(X, dtype=np.float64)
    else:
        H = np.asarray(X, dtype=np.float64)
    tape = []
    out = slice(None) if plan.outputs is None else plan.outputs
    for k, W in enumerate(model.weights):
        Hin, mask = nn.dropout_forward(H, rate, rng, training, plan.stored if k == 0 else None)
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
    each GCN layer, S restricted to those columns (a ``fit_plan``'s
    ``grad_operators``); None applies the full operator at every layer.
    The bottom layer's ``S @ d_pre`` is then zero outside the plan's
    input rows, so its weight gradient ``Hin.T @ d_hw`` needs no row of
    Hin beyond them.
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

    Only the masked rows are computed, on the plan of their walk, given
    X whole: the pass runs once, so slicing a sparse X to the rows it
    reaches (``nn.keep_rows``) would cost more than the product saves,
    and a CSR product rounds alike on any rows. Raises ValueError for a
    mask that ``train`` would refuse as a split, and for a boolean mask
    that is not N long."""
    idx = _checked_index("evaluate: mask", mask, labels, model.mixed_matrix.shape[0])
    Z = forward(model, X, training=False, plan=_walk(model, idx, inputs=False)[0])
    return _accuracy(Z, labels, idx)


def eval_plan(model: Model, rows, X) -> Plan:
    """``forward``'s plan for evaluation passes that read the output on
    ``rows`` again and again, as ``train``'s validation pass does each
    epoch. Its input is X's first hop ``(S @ X)[R]``, formed once, when
    that reads less; else X sliced to the rows the bottom layer reads.
    ``split_plans`` builds it once per ``train`` call, or once for all
    seeds of a ``run_protocol`` call or ``grid_search`` recipe.

    Evaluation applies no dropout, so the bottom GCN layer is linear in
    X: ``S_R (X W0) = (S_R X) W0``, the precomputed propagation of SGC
    (Wu et al. 2019). With the first hop, a pass computes that layer as
    one |R|×F product with W0, and the bottom operator is the row
    placement E_R, the frozen N×|R| CSR matrix with a single 1.0 at
    (R[i], i): each row of the product is added to 0.0 once, at row R[i].
    The rule: form it when |R|·F is at most the number of X values the
    layer reads without it, which is N·F for a dense X (so always) and,
    for a CSR X, the values stored in the rows S[R] reads. Per pass the
    product then reads no more than ``Hin @ W0`` did. On synthetic
    graphs of citation shape, pubmed's validation rows give 250,000
    against 498,821 (formed in 13 ms; a pass then saves 2.5 of its
    2.8 ms) and citeseer's 1,851,500 against 76,966 (the dense product
    alone would cost 1.7 ms against the sliced ``Hin @ W0``'s 0.43 ms).

    A dense X's first hop is one apply of the plan's bottom operator; a
    CSR X's is one sparse product of S's R rows (``to_scipy(R)``) with X.
    The rule reads the walk's R and N1 alone, never whether a
    restriction fell back to S, so the restricted and full paths form
    the same array. It sums in another order than ``Hin @ W0`` and the
    apply, so the outputs differ from the path without it by about 1 ulp.
    """
    S = model.mixed_matrix
    plan, steps = _walk(model, rows, sp.issparse(X))
    R, near = steps[0]
    if sp.issparse(X):
        reads = S.reads(R, near) if plan.inputs is None else plan.inputs
        if R.size * X.shape[1] > np.diff(X.indptr)[reads].sum():
            return replace(plan, X=nn.keep_rows(X, plan.inputs))
        first = (S.to_scipy(R) @ X).toarray()
    else:
        first = nn.spmm(plan.operators[0], X)[R]
    place = freeze_csr(sp.csr_matrix((np.ones(R.size), (R, np.arange(R.size))),
                                     shape=(S.shape[0], R.size)))
    return replace(plan, operators=[place, *plan.operators[1:]], inputs=None, X=first)


def fit_plan(model: Model, train_idx, X) -> Plan:
    """``forward``'s plan for a loss read on ``train_idx``, with
    ``backward``'s operators: one walk serves both passes. Its input is X
    sliced to the rows the bottom layer reads, found for a CSR X; a dense
    X is read whole by every product. For a CSR X the plan also holds
    the positions of its stored values in those rows, the only ones
    training dropout draws for."""
    plan, steps = _walk(model, train_idx, sp.issparse(X))
    stored = None if plan.inputs is None else nn.stored_in(X.indptr, plan.inputs)
    return replace(plan, stored=stored, X=nn.keep_rows(X, plan.inputs),
                   grad_operators=[model.mixed_matrix.columns(*step) for step in steps])


def _walk(model: Model, rows, inputs: bool) -> tuple[Plan, list]:
    S = model.mixed_matrix
    outputs = np.unique(rows)
    steps, inputs = S.walk(outputs, model.config.h1, inputs=inputs)
    return Plan([S.rows(*step) for step in steps], inputs, outputs), steps


def split_plans(config: ModelConfig, dataset, splits,
                mixed: MixedOperator | None = None) -> SplitPlans:
    """The checked splits and the plans ``train`` reads them with:
    ``fit_plan`` of the train rows and ``eval_plan`` of the validation
    rows. ``mixed`` is as in ``train``; it is built here when None, after
    the splits are checked, so a bad split raises ValueError (as
    ``train`` documents) before any mixing. Only ``config.recipe`` and
    ``config.h1`` are read."""
    graph = dataset.graph
    _check_graph(graph)
    train_idx, val_idx, test_idx = (
        _checked_index(f"{name} split", getattr(splits, name), graph.labels, graph.n_nodes)
        for name in ("train", "validation", "test"))
    if mixed is None:
        mixed = mix_matrices(config.recipe, graph)
    # The walks read the operator and h1 alone, so a model without
    # weights serves them.
    walker = Model(mixed, [], config)
    # Each pass computes only the rows it reads: training reads the train
    # rows, evaluation the validation rows.
    return SplitPlans(mixed, config.h1, graph.features, splits, train_idx, val_idx, test_idx,
                      fit_plan(walker, train_idx, graph.features),
                      eval_plan(walker, val_idx, graph.features))


def _check_graph(graph: Graph) -> None:
    if graph.features is None or graph.labels is None:
        raise ValueError("graph must carry features and labels")
    if graph.n_classes < 1:
        raise ValueError("graph has no label classes")


def _checked_index(what: str, mask, labels, n: int) -> np.ndarray:
    """``mask``, a boolean mask or an index array, as an index array.
    Raises ValueError when it is a boolean mask that is not n long, names
    no node, holds an index that is not an integer or is outside [0, n),
    repeats a node, or names an unlabeled node."""
    mask = np.asarray(mask)
    if mask.dtype == bool and mask.shape != (n,):
        raise ValueError(f"{what} is a boolean mask of shape {mask.shape}, not ({n},)")
    if mask.size and mask.dtype.kind not in "biu":
        raise ValueError(f"{what} holds non-integer indices ({mask.dtype})")
    idx = nn.as_index(mask)
    if idx.size == 0:
        raise ValueError(f"{what} is empty")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"{what} index out of range [0, {n})")
    nodes, counts = np.unique(idx, return_counts=True)
    if counts.max() > 1:
        raise ValueError(f"{what} repeats node {nodes[counts > 1][0]}")
    unlabeled = idx[np.asarray(labels)[idx] == UNLABELED]
    if unlabeled.size:
        raise ValueError(f"{what} names unlabeled node {unlabeled[0]}")
    return idx


def _accuracy(Z: np.ndarray, labels, idx: np.ndarray) -> float:
    return float(np.mean(Z[idx].argmax(axis=1) == np.asarray(labels)[idx]))


def train(config: ModelConfig, dataset, splits,
          mixed: MixedOperator | None = None, *, plans: SplitPlans | None = None):
    """Full-batch training loop. Returns (model, TrainReport).

    Deterministic given config.seed; one dropout RNG stream is drawn
    from the same seed as the weight init. ``mixed`` is the
    ``mix_matrices(config.recipe, dataset.graph)`` operator when the
    caller already holds it, else it is built here. Raises ValueError
    before the first epoch when a split is empty, is a boolean mask that
    is not N long, holds an index that is not an integer or is outside
    [0, N), repeats a node, or names an unlabeled node.

    ``plans`` is ``split_plans(config, dataset, splits, mixed)`` when the
    caller already holds it, as ``run_protocol`` and ``grid_search`` do
    for all their seeds, else it is built here; the model then uses its
    mixed operator. Plans built for another mixed operator, h1, X or
    splits raise ValueError.

    Each epoch validates after its Adam step, on the calling thread, and
    then updates the best epoch and the patience count. Each pass reads
    its plan's ``X``, the first hop for validation when ``eval_plan``
    formed one.
    """
    graph = dataset.graph
    if plans is None:
        plans = split_plans(config, dataset, splits, mixed)
    elif ((mixed is not None and mixed is not plans.mixed) or plans.h1 != config.h1
          or plans.features is not graph.features or plans.splits is not splits):
        raise ValueError("plans were built for another mixed operator, h1, "
                         "features or splits")
    model = build_model(config, graph, mixed=plans.mixed)
    train_idx, val_idx, test_idx = plans.train, plans.validation, plans.test
    fit, val = plans.fit, plans.val
    rng = np.random.default_rng((config.seed, 0xD0))  # dropout stream
    y = graph.labels

    W = model.weights
    m = [np.zeros_like(w) for w in W]  # Adam moment estimates
    v = [np.zeros_like(w) for w in W]

    train_losses, val_losses, val_accs = [], [], []
    best_val = np.inf
    best_epoch = 0
    best_weights = None
    for epoch in range(1, config.max_epochs + 1):
        # The previous epoch's tape is released only when this forward pass
        # returns, so the pass reuses its pages. Released before the
        # validation pass, they went back to the system, and a powerlaw
        # train took 1.5 s instead of 1.2 s, with up to 4x the page faults.
        Z, tape = forward(model, fit.X, training=True, rng=rng, with_tape=True, plan=fit)
        loss = regularized_loss(model, Z, y, train_idx)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        grads = backward(model, tape, y, train_idx, operators=fit.grad_operators)
        for k, g in enumerate(grads):
            W[k], m[k], v[k] = nn.adam_step(W[k], m[k], v[k], g, config.learning_rate, epoch)

        Z_val = forward(model, val.X, training=False, plan=val)
        val_loss = nn.cross_entropy_loss(Z_val, y, val_idx)
        train_losses.append(loss)
        val_losses.append(val_loss)
        val_accs.append(_accuracy(Z_val, y, val_idx))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_weights = [w.copy() for w in W]
        elif epoch - best_epoch >= config.patience:
            break

    model.weights = best_weights
    test_acc = evaluate(model, graph.features, y, test_idx)
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
    independent of scheduling. The runs share one ``split_plans``, mixed
    operator included, built here on the calling thread, and go to
    ``threads`` worker threads. A bad ``n_runs``, ``threads`` or split
    raises ValueError before the mix is built."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    plans = split_plans(config, dataset, splits)

    def one(i):
        return train(replace(config, seed=config.seed + i), dataset, splits, plans=plans)[1]

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
