import dataclasses
import pickle
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.cli import main
from motifgcn.data import Dataset, SplitSpec, Splits, load_planetoid, make_splits
from motifgcn.graph import UNLABELED, Graph, build_adjacency
from motifgcn import model as model_module, motifs, nn, verify
from motifgcn.motifs import MixRecipe, normalize_symmetric
from motifgcn.model import (
    ModelConfig,
    Plan,
    TrainingDiverged,
    backward,
    build_model,
    eval_plan,
    evaluate,
    fit_plan,
    forward,
    grid_search,
    run_protocol,
    split_plans,
    train,
)
from motifgcn.synthetic import two_community_dataset
from motifgcn.verify import GRADCHECK_SHAPES, gradcheck_fixture, gradient_check, random_graph

EDGE_ONLY = MixRecipe.parse("edge:1")
MIXED = MixRecipe.parse("edge:8,triangle:1,wedge:2")


@pytest.fixture
def small_dataset():
    return two_community_dataset(20, seed=0)


@pytest.fixture
def small_splits(small_dataset):
    spec = SplitSpec(per_class_train=4, val_fraction=0.2, test_fraction=0.4)
    return make_splits(small_dataset, spec, seed=1)


def labeled_graph(rng, n=14):
    return random_graph(rng, n, 0.4, feature_dim=6, n_classes=3)


# ------------------------------------------------------------------- build

def test_build_model_weight_shapes(rng):
    g = labeled_graph(rng)
    m = build_model(ModelConfig(h1=2, h2=1, hidden_dim=16, recipe=MIXED), g)
    assert [W.shape for W in m.weights] == [(6, 16), (16, 16), (16, 3)]


def test_build_model_single_layer(rng):
    g = labeled_graph(rng)
    m = build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), g)
    assert [W.shape for W in m.weights] == [(6, 3)]


def test_build_model_seed_determinism(rng):
    g = labeled_graph(rng)
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=11)
    a = build_model(cfg, g)
    b = build_model(cfg, g)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)


@pytest.mark.parametrize("make", [
    lambda: Graph(3, [(0, 1), (1, 2)]),
    lambda: Splits(np.array([0, 1]), np.array([2, 3]), np.array([4, 5])),
    lambda: two_community_dataset(20, seed=0),
    lambda: Plan(inputs=np.arange(3), outputs=np.arange(3)),
    lambda: build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY),
                        two_community_dataset(20, seed=0).graph),
    lambda: split_plans(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), *loop_dataset(True)),
], ids=["Graph", "Splits", "Dataset", "Plan", "Model", "SplitPlans"])
def test_array_holders_compare_by_identity(make):
    # A field-wise == would compare arrays, whose truth value numpy refuses.
    a, b = make(), make()
    assert (a == b) is False and (a == a) is True
    assert len({a, b, a}) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(h1=0)
    with pytest.raises(ValueError):
        ModelConfig(h2=-1)
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(max_epochs=0)
    with pytest.raises(ValueError):
        ModelConfig(patience=0)
    with pytest.raises(ValueError):
        ModelConfig(weight_decay=-1)
    with pytest.raises(ValueError):
        ModelConfig(seed=-1)


# ----------------------------------------------------------------- forward

def test_forward_rows_are_distributions(rng):
    g = labeled_graph(rng)
    m = build_model(ModelConfig(h1=2, h2=1, recipe=MIXED), g)
    Z = forward(m, g.features)
    assert Z.shape == (g.n_nodes, 3)
    assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(Z >= 0)


def test_forward_equals_two_layer_gcn_formula(rng):
    # pure edge recipe must reproduce, computed densely and directly,
    # softmax(A_hat relu(A_hat X W0) W1) for h1=2, h2=0 and
    # softmax(relu(A_hat X W0) W1) for h1=1, h2=1 (the MLP layer)
    g = labeled_graph(rng, n=16)
    A_hat = normalize_symmetric(build_adjacency(g), add_self_loops=True).toarray()
    for h1, h2 in [(2, 0), (1, 1)]:
        cfg = ModelConfig(h1=h1, h2=h2, hidden_dim=8, recipe=EDGE_ONLY, seed=4,
                          dropout=0.0)
        m = build_model(cfg, g)
        W0, W1 = m.weights
        pre = np.maximum(A_hat @ g.features @ W0, 0.0) @ W1
        if h1 == 2:
            pre = A_hat @ pre
        e = np.exp(pre - pre.max(axis=1, keepdims=True))
        ref = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(forward(m, g.features), ref, atol=1e-10), (h1, h2)


def test_forward_permutation_equivariance(rng):
    g = labeled_graph(rng, n=15)
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=2, dropout=0.0)
    m = build_model(cfg, g)
    Z = forward(m, g.features)

    perm = rng.permutation(g.n_nodes)
    inv = np.argsort(perm)
    pedges = np.array([[inv[u], inv[v]] for u, v in g.edges])
    pg = Graph(g.n_nodes, pedges, features=g.features[perm],
               labels=g.labels[perm], n_classes=g.n_classes)
    pm = build_model(cfg, pg)
    pm.weights = [W.copy() for W in m.weights]
    assert np.allclose(forward(pm, pg.features), Z[perm], atol=1e-10)


def test_loss_permutation_invariance(rng):
    from motifgcn.model import regularized_loss

    g = labeled_graph(rng, n=15)
    cfg = ModelConfig(h1=1, h2=1, recipe=MIXED, seed=2, dropout=0.0)
    m = build_model(cfg, g)
    mask = np.arange(0, 15, 2)
    loss = regularized_loss(m, forward(m, g.features), g.labels, mask)

    perm = rng.permutation(g.n_nodes)
    inv = np.argsort(perm)
    pg = Graph(g.n_nodes, np.array([[inv[u], inv[v]] for u, v in g.edges]),
               features=g.features[perm], labels=g.labels[perm],
               n_classes=g.n_classes)
    pm = build_model(cfg, pg)
    pm.weights = [W.copy() for W in m.weights]
    ploss = regularized_loss(pm, forward(pm, pg.features), pg.labels, inv[mask])
    assert ploss == pytest.approx(loss, abs=1e-10)


# ---------------------------------------------------------------- training

def test_train_two_community_accuracy(small_dataset, small_splits):
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=7)
    _, report = train(cfg, small_dataset, small_splits)
    assert report.test_accuracy >= 0.9


def test_initial_loss_near_log_n_classes(rng):
    # small feature magnitudes (as with row-normalized citation features)
    # leave the initial logits near zero, so epoch-1 predictions are
    # near-uniform and the loss sits near ln(L)
    from motifgcn.data import Dataset

    g = random_graph(rng, 30, 0.3, feature_dim=8, n_classes=3)
    g = Graph(g.n_nodes, g.edges, features=0.01 * g.features,
              labels=g.labels, n_classes=3)
    ds = Dataset(g, "probe")
    splits = make_splits(ds, SplitSpec(4, 0.2, 0.3), seed=0)
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=3, dropout=0.0)
    _, report = train(cfg, ds, splits)
    assert report.train_losses[0] == pytest.approx(np.log(3), rel=0.10)


def test_train_deterministic_trajectory(small_dataset, small_splits):
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=9)
    _, r1 = train(cfg, small_dataset, small_splits)
    _, r2 = train(cfg, small_dataset, small_splits)
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    assert r1.test_accuracy == r2.test_accuracy


def test_early_stopping_restores_best_epoch(small_dataset, small_splits):
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=5, max_epochs=120, patience=10)
    model, report = train(cfg, small_dataset, small_splits)
    best = report.val_losses[report.best_epoch - 1]
    assert best <= min(report.val_losses) + 1e-15
    assert report.best_epoch <= report.epochs_run
    # restored model really is the best-epoch model
    from motifgcn import nn as _nn

    Z = forward(model, small_dataset.graph.features)
    val = small_splits.validation
    assert _nn.cross_entropy_loss(Z, small_dataset.graph.labels, val) == pytest.approx(best, abs=1e-12)
    # grid_search scores a run by this recorded accuracy
    assert evaluate(model, small_dataset.graph.features, small_dataset.graph.labels,
                    val) == report.val_accuracies[report.best_epoch - 1]


def test_train_divergence_reports_epoch(small_dataset, small_splits):
    cfg = ModelConfig(
        h1=1, h2=0, recipe=EDGE_ONLY, seed=0, max_epochs=50,
        learning_rate=1e200, dropout=0.0,
    )
    with pytest.raises(TrainingDiverged):
        train(cfg, small_dataset, small_splits)


def test_train_divergence_in_matmul_is_silent(small_dataset, small_splits):
    # Here the weights overflow in forward's Hin @ W, not only in the L2
    # term; the RuntimeWarning filter turns any numpy warning into a failure.
    cfg = ModelConfig(
        h1=2, h2=1, recipe=MIXED, seed=0, max_epochs=50,
        learning_rate=1e200, dropout=0.0,
    )
    with pytest.raises(TrainingDiverged):
        train(cfg, small_dataset, small_splits)


SPLIT_FAULTS = [(split, fault) for fault in ("out of range", "empty")
                for split in ("train", "validation", "test")]


@pytest.mark.parametrize(
    "split, fault", SPLIT_FAULTS,
    ids=[split if fault == "out of range" else f"{split}-empty"
         for split, fault in SPLIT_FAULTS])
def test_train_rejects_out_of_range_split_index(small_dataset, small_splits,
                                                monkeypatch, split, fault):
    n = small_dataset.graph.n_nodes
    if fault == "empty":
        bad_idx, message = np.array([], dtype=np.int64), f"{split} split is empty"
    else:
        bad_idx = np.append(getattr(small_splits, split), n + 3)
        message = f"{split} split index out of range"

    def no_epochs(*args, **kwargs):
        raise AssertionError("an epoch ran before the split was checked")

    monkeypatch.setattr(model_module, "forward", no_epochs)
    # Splits itself rejects an empty train split
    with pytest.raises(ValueError, match=message):
        bad = dataclasses.replace(small_splits, **{split: bad_idx})
        train(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), small_dataset, bad)


@pytest.mark.parametrize("split", ["train", "validation", "test"])
def test_train_rejects_unlabeled_split_node(small_dataset, small_splits, monkeypatch, split):
    # Label -1 would index the last class in the loss and count as a
    # wrong prediction in the validation or test accuracy.
    g = small_dataset.graph
    node = int(getattr(small_splits, split)[0])
    labels = g.labels.copy()
    labels[node] = UNLABELED
    dataset = Dataset(Graph(g.n_nodes, g.edges, features=g.features, labels=labels,
                            n_classes=g.n_classes), "one unlabeled node")

    def no_epochs(*args, **kwargs):
        raise AssertionError("an epoch ran before the split was checked")

    monkeypatch.setattr(model_module, "forward", no_epochs)
    with pytest.raises(ValueError, match=f"{split} split names unlabeled node {node}$"):
        train(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), dataset, small_splits)


@pytest.mark.parametrize("split", ["train", "validation", "test"])
@pytest.mark.parametrize("fault", ["non-integer", "repeated"])
def test_train_rejects_non_integer_or_repeated_split_index(small_dataset, small_splits,
                                                           monkeypatch, split, fault):
    # A float index would be truncated to another node. A repeated train
    # node would count twice in the loss but once in backward's gradient.
    idx = np.asarray(getattr(small_splits, split))
    if fault == "non-integer":
        bad_idx, message = idx + 0.9, f"{split} split holds non-integer indices \\(float64\\)"
    else:
        bad_idx, message = np.append(idx, idx[0]), f"{split} split repeats node {idx[0]}"
    splits = SimpleNamespace(**{name: getattr(small_splits, name)
                                for name in ("train", "validation", "test")})
    setattr(splits, split, bad_idx)

    def no_epochs(*args, **kwargs):
        raise AssertionError("an epoch ran before the split was checked")

    monkeypatch.setattr(model_module, "forward", no_epochs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), small_dataset, splits)


def test_cli_train_rejects_unlabeled_planetoid_train_node(tmp_path, capsys):
    # An all-zero ally row among the first len(y) rows leaves a train node
    # without a label.
    write_planetoid_layout(tmp_path)
    path = tmp_path / "ind.cora.ally"
    with open(path, "rb") as fh:
        ally = pickle.load(fh)
    ally[3] = 0
    with open(path, "wb") as fh:
        pickle.dump(ally, fh)
    conf = tmp_path / "planetoid.conf"
    conf.write_text("dataset = planetoid:cora\nh1 = 1\nh2 = 0\n")
    with pytest.warns(UserWarning, match="published"):
        code = main(["train", "--config", str(conf), "--data-root", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "train split names unlabeled node 3" in captured.err


def test_cli_train_rejects_unlabeled_planetoid_test_node(tmp_path, capsys):
    # An all-zero ty row leaves the test node it belongs to without a label.
    write_planetoid_layout(tmp_path)
    path = tmp_path / "ind.cora.ty"
    with open(path, "rb") as fh:
        ty = pickle.load(fh)
    ty[0] = 0
    with open(path, "wb") as fh:
        pickle.dump(ty, fh)
    node = int((tmp_path / "ind.cora.test.index").read_text().split()[0])
    conf = tmp_path / "planetoid.conf"
    conf.write_text("dataset = planetoid:cora\nh1 = 1\nh2 = 0\n")
    with pytest.warns(UserWarning, match="published"):
        code = main(["train", "--config", str(conf), "--data-root", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"test split names unlabeled node {node}" in captured.err


# -------------------------------------------------------------- evaluation

def test_evaluate_perfect_and_wrong(rng):
    g = labeled_graph(rng)
    m = build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), g)
    onehot = np.eye(3)[g.labels]
    import motifgcn.model as model_mod

    orig = model_mod.forward
    try:
        model_mod.forward = lambda *a, **k: onehot
        assert model_mod.evaluate(m, g.features, g.labels, np.arange(g.n_nodes)) == 1.0
        wrong = np.roll(onehot, 1, axis=1)
        model_mod.forward = lambda *a, **k: wrong
        assert model_mod.evaluate(m, g.features, g.labels, np.arange(g.n_nodes)) == 0.0
    finally:
        model_mod.forward = orig


def test_evaluate_empty_mask(rng):
    g = labeled_graph(rng)
    m = build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), g)
    with pytest.raises(ValueError):
        evaluate(m, g.features, g.labels, np.array([], dtype=np.int64))


def test_evaluate_rejects_unlabeled_node():
    # Counting an unlabeled node as a wrong prediction would lower the
    # accuracy without a word.
    dataset = two_community_dataset(n=20)
    g = dataset.graph
    labels = g.labels.copy()
    labels[13] = UNLABELED
    m = build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), g)
    with pytest.raises(ValueError, match="evaluate: mask names unlabeled node 13"):
        evaluate(m, g.features, labels, np.arange(10, 20))


@pytest.mark.parametrize("mask, message", [
    ([-1], r"evaluate: mask index out of range \[0, 20\)"),
    ([20], r"evaluate: mask index out of range \[0, 20\)"),
    (np.zeros(20, dtype=bool), "evaluate: mask is empty"),
    (np.ones(19, dtype=bool), r"evaluate: mask is a boolean mask of shape \(19,\), not \(20,\)"),
    (np.ones(21, dtype=bool), r"evaluate: mask is a boolean mask of shape \(21,\), not \(20,\)"),
    ([0.9, 1.9, 2.9], r"evaluate: mask holds non-integer indices \(float64\)"),
    ([0, 0, 1, 2], "evaluate: mask repeats node 0"),
], ids=["negative", "past the end", "no node", "short bool", "long bool", "float", "repeated"])
def test_evaluate_rejects_bad_mask(mask, message):
    # evaluate checks a mask as train checks a split, and a boolean mask's
    # length, before any pass runs.
    g = two_community_dataset(n=20).graph
    m = build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY), g)
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(m, g.features, g.labels, mask)


def test_random_model_accuracy_near_chance(rng):
    # untrained softmax outputs over L classes hover around 1/L accuracy
    accs = []
    for seed in range(30):
        g = random_graph(np.random.default_rng(seed), 40, 0.2, feature_dim=4, n_classes=4)
        m = build_model(ModelConfig(h1=1, h2=0, recipe=EDGE_ONLY, seed=seed), g)
        accs.append(evaluate(m, g.features, g.labels, np.arange(40)))
    assert np.mean(accs) == pytest.approx(0.25, abs=0.08)


# ---------------------------------------------------------------- protocol

def test_run_protocol_single_run(small_dataset, small_splits):
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=3)
    out = run_protocol(cfg, small_dataset, small_splits, n_runs=1)
    assert out["mean"] == out["max"] == out["accuracies"][0]


def test_run_protocol_reproducible_and_bounded(small_dataset, small_splits):
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=3)
    a = run_protocol(cfg, small_dataset, small_splits, n_runs=5)
    b = run_protocol(cfg, small_dataset, small_splits, n_runs=5)
    assert a == b
    assert all(0.0 <= acc <= 1.0 for acc in a["accuracies"])
    assert a["mean"] <= a["max"]


def test_run_protocol_threads_deterministic(small_dataset, small_splits):
    cfg = ModelConfig(h1=1, h2=1, recipe=EDGE_ONLY, seed=3)
    seq = run_protocol(cfg, small_dataset, small_splits, n_runs=4, threads=1)
    par = run_protocol(cfg, small_dataset, small_splits, n_runs=4, threads=3)
    assert seq == par


# ------------------------------------------------------------- grid search

def test_grid_search_single_recipe(small_dataset, small_splits):
    cfg = ModelConfig(h1=1, h2=1, seed=2)
    best, table = grid_search(small_dataset, small_splits, [EDGE_ONLY], cfg, n_seeds=2)
    assert best is EDGE_ONLY
    assert len(table) == 1


def test_grid_search_table_and_duplicates(small_dataset, small_splits):
    cfg = ModelConfig(h1=1, h2=1, seed=2)
    grid = [EDGE_ONLY, MIXED, EDGE_ONLY]
    best, table = grid_search(small_dataset, small_splits, grid, cfg, n_seeds=2)
    assert [row["recipe"] for row in table] == ["edge:1", "edge:8,triangle:1,wedge:2", "edge:1"]
    assert table[0]["val_accuracy_mean"] == table[2]["val_accuracy_mean"]
    # ties break toward the earlier grid entry
    if table[0]["val_accuracy_mean"] >= table[1]["val_accuracy_mean"]:
        assert best is grid[0]


def test_grid_search_needs_a_seed(small_dataset, small_splits):
    with pytest.raises(ValueError, match="n_runs"):
        grid_search(small_dataset, small_splits, [EDGE_ONLY], ModelConfig(), n_seeds=0)


def test_grid_search_empty_grid(small_dataset, small_splits):
    with pytest.raises(ValueError):
        grid_search(small_dataset, small_splits, [], ModelConfig(), n_seeds=2)


# ------------------------------------------------------ sparse input path

def sparse_feature_graph(rng, n=14):
    """labeled_graph with about 70% of its features zeroed, in CSR form."""
    g = labeled_graph(rng, n)
    X = g.features * (rng.random(g.features.shape) < 0.3)
    return Graph(g.n_nodes, g.edges, features=sp.csr_matrix(X), labels=g.labels,
                 n_classes=g.n_classes)


def test_sparse_and_dense_features_agree(rng):
    g = sparse_feature_graph(rng)
    m = build_model(ModelConfig(h1=2, h2=1, hidden_dim=5, recipe=MIXED, seed=4), g)
    X_sparse, X_dense = g.features, g.features.toarray()
    train_idx = np.arange(0, g.n_nodes, 2)
    Z_s, tape_s = forward(m, X_sparse, with_tape=True)
    Z_d, tape_d = forward(m, X_dense, with_tape=True)
    np.testing.assert_allclose(Z_s, Z_d, rtol=0, atol=1e-12)
    for gs, gd in zip(backward(m, tape_s, g.labels, train_idx),
                      backward(m, tape_d, g.labels, train_idx)):
        np.testing.assert_allclose(gs, gd, rtol=0, atol=1e-12)


def test_gradient_check_with_sparse_features():
    g = sparse_feature_graph(np.random.default_rng(5), n=12)
    assert sp.issparse(g.features)
    for h1, h2 in ((1, 0), (2, 1)):
        assert gradient_check(h1, h2, graph=g) < 1e-6


def test_sparse_dropout_masks_are_uncorrelated_across_epochs(monkeypatch):
    # A fully stored X on a ring whose train split reads 802 of its 1000
    # rows: 8e5 keyed draws per epoch, or 1e6 on the full path.
    n = 1000
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    g = Graph(n, ring, features=sp.csr_matrix(np.ones((n, n))), labels=np.arange(n) % 2,
              n_classes=2)
    splits = Splits(np.arange(800), np.arange(800, 900), np.arange(900, n))
    masks = []
    dropout = nn.dropout_forward

    def recording(H, rate, rng, training, at=None):
        out, mask = dropout(H, rate, rng, training, at)
        if training and sp.issparse(H):
            masks.append(out.data != 0)  # X stores ones: a dropped value is 0
        return out, mask

    monkeypatch.setattr(nn, "dropout_forward", recording)
    train(ModelConfig(h1=1, h2=0, max_epochs=3, seed=0), Dataset(g, "ring"), splits)
    assert len(masks) == 3 and masks[0].size >= 802 * n
    for a, b in ((masks[0], masks[1]), (masks[1], masks[2]), (masks[0], masks[2])):
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def pattern(M) -> sp.csr_matrix:
    """M's stored pattern, explicit zeros included, as ones."""
    return sp.csr_matrix((np.ones(M.nnz), M.indices, M.indptr), M.shape)


def dense_row_sets(m, rows) -> tuple[list, np.ndarray]:
    """Each GCN layer's rows in forward order, and the input rows the
    bottom layer reads, read off S's dense pattern one layer at a time:
    the stored pattern of P, and that of A @ A when the mix has a wedge
    term."""
    S = m.mixed_matrix
    reads = pattern(S.P).toarray() > 0
    if S.c:
        reads |= (pattern(S.A_out) @ pattern(S.A_in)).toarray() > 0
    sets = [np.unique(rows)]
    for _ in range(m.config.h1):
        sets.append(np.flatnonzero(reads[sets[-1]].any(axis=0)))
    return sets[-2::-1], sets[-1]


@pytest.mark.parametrize("recipe", ["edge:8,triangle:1,wedge:2", "edge:1", "triangle:1",
                                    "wedge:1"])
@pytest.mark.parametrize("seed", range(4))
def test_walk_reads_no_extra_rows(monkeypatch, recipe, seed):
    # Bit-equality with the full path holds for any superset of the rows
    # that are read, so it cannot tell a walk that reaches too far.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 30, 0.12, feature_dim=1, n_classes=2)
    m = build_model(ModelConfig(h1=3, h2=0, recipe=MixRecipe.parse(recipe)), g)
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)  # S only where R is every row
    S = m.mixed_matrix
    dense = S.to_scipy().toarray()
    for rows in (rng.choice(30, 2, replace=False), rng.choice(30, 6, replace=False)):
        expected, expected_inputs = dense_row_sets(m, rows)
        steps, inputs = S.walk(np.unique(rows), m.config.h1)
        assert all(np.array_equal(R, want)
                   for (R, _), want in zip(steps, expected, strict=True))
        # S itself computes every row, so it reads every input row.
        if expected[0].size == 30:
            assert inputs is None
        else:
            assert np.array_equal(inputs, expected_inputs)
        # A restriction is S with the rows (or columns) outside R zeroed.
        fit = fit_plan(m, rows, g.features)
        place, *val_ops = eval_plan(m, rows, g.features).operators  # a first-hop plan
        for ops, axis, sets in ((fit.operators, 0, expected),
                                (fit.grad_operators, 1, expected),
                                (val_ops, 0, expected[1:])):
            for op, R in zip(ops, sets, strict=True):
                kept = np.zeros(30, dtype=bool)
                kept[R] = True
                want = dense * (kept[:, None] if axis == 0 else kept[None, :])
                assert np.array_equal(op.to_scipy().toarray(), want)
        # Its bottom operator E_R places row i of the first hop at row R[i].
        assert np.array_equal(place.toarray(), np.eye(30)[:, expected[0]])


def test_every_operator_is_read_only():
    # Threads share the mix and the restrictions train builds from it, so
    # no part of any operator may be writable.
    g = random_graph(np.random.default_rng(2), 300, 0.01, feature_dim=8, n_classes=3)
    m = build_model(ModelConfig(recipe=MIXED), g)
    rows = np.arange(0, 300, 50)
    fit = fit_plan(m, rows, g.features)
    place, *val_ops = eval_plan(m, rows, g.features).operators  # a first-hop plan
    ops = [m.mixed_matrix, *fit.operators, *fit.grad_operators, *val_ops]
    assert sum(op is not m.mixed_matrix for op in ops) == 5
    assert sp.isspmatrix_csr(place) and place.shape[0] == 300
    for part in (place.data, place.indices, place.indptr):
        with pytest.raises(ValueError, match="read-only"):
            part[:1] = 0
    for op in ops:
        for part in (op.s, *(a for M in (op.P, op.A_out, op.A_in)
                             for a in (M.data, M.indices, M.indptr))):
            with pytest.raises(ValueError, match="read-only"):
                part[:1] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.c = 0.0


def test_sparse_graph_features_are_read_only(rng):
    g = sparse_feature_graph(rng)
    X = g.features
    assert sp.isspmatrix_csr(X) and X.has_canonical_format
    row = int(np.flatnonzero(np.diff(X.indptr))[0])
    col = int(X.indices[X.indptr[row]])
    with pytest.raises(ValueError):
        X[row, col] = 1.0
    with pytest.raises(ValueError):
        X.data[0] = 1.0
    # an unstored position too: scipy writes the stored part first
    r = int(np.argmin(np.diff(X.indptr)))
    c = int(np.setdiff1d(np.arange(X.shape[1]), X.indices[X.indptr[r]:X.indptr[r + 1]])[0])
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
        X[r, c] = 1.0
    assert X[r, c] == 0


def write_planetoid_layout(directory, n=40, n_features=30, seed=0, p_link=(0.3, 0.02)):
    """Two planted communities with sparse binary features in the Planetoid
    8-file layout: nodes 0-7 train, 8-27 validation, 28-39 test. A pair
    is linked with probability ``p_link`` = (within, across) communities."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    same = labels[:, None] == labels[None, :]
    linked = np.triu(rng.random((n, n)) < np.where(same, *p_link), 1)
    graph = {u: [int(v) for v in np.flatnonzero(linked[u])] for u in range(n)}
    topic = (np.arange(n_features) % 2)[None, :] == labels[:, None]
    X = sp.csr_matrix(rng.random((n, n_features)) < np.where(topic, 0.3, 0.03),
                      dtype=np.float64)
    onehot = np.eye(2)[labels]
    n_train, n_known = 8, 28
    test_idx = rng.permutation(np.arange(n_known, n))
    parts = {"x": X[:n_train], "y": onehot[:n_train], "allx": X[:n_known],
             "ally": onehot[:n_known], "tx": X[test_idx], "ty": onehot[test_idx],
             "graph": graph}
    for part, obj in parts.items():
        with open(directory / f"ind.cora.{part}", "wb") as fh:
            pickle.dump(obj, fh)
    (directory / "ind.cora.test.index").write_text(
        "\n".join(str(i) for i in test_idx) + "\n")


def test_train_deterministic_with_sparse_features(tmp_path):
    write_planetoid_layout(tmp_path)
    with pytest.warns(UserWarning, match="published"):
        ds, splits = load_planetoid(tmp_path, "cora")
    assert sp.issparse(ds.graph.features)
    cfg = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=9, max_epochs=60)
    assert cfg.dropout > 0
    _, r1 = train(cfg, ds, splits)
    _, r2 = train(cfg, ds, splits)
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    assert r1.best_epoch == r2.best_epoch
    assert r1.test_accuracy == r2.test_accuracy


# ---------------------------------------------- restricted rows, full path

def full_path_runs(monkeypatch, config, dataset, splits):
    """(report, weights, protocol) of train and run_protocol with every
    operator restricted to the rows it must compute, then with none (a
    negative FULL_FRACTION makes every restriction fall back to S)."""
    runs = []
    for fraction in (np.inf, -1.0):
        monkeypatch.setattr(motifs, "FULL_FRACTION", fraction)
        m, report = train(config, dataset, splits)
        runs.append((report, m.weights,
                     run_protocol(config, dataset, splits, n_runs=3, threads=2)))
    return runs


@pytest.mark.parametrize("h1, h2, recipe", [(1, 0, MIXED), (2, 1, MIXED), (2, 0, EDGE_ONLY)])
def test_train_equals_full_path(small_dataset, small_splits, monkeypatch, h1, h2, recipe):
    config = ModelConfig(h1=h1, h2=h2, hidden_dim=8, recipe=recipe, max_epochs=30, seed=3)
    (report, weights, protocol), (report_full, weights_full, protocol_full) = (
        full_path_runs(monkeypatch, config, small_dataset, small_splits))
    assert report == report_full
    assert protocol == protocol_full
    assert all(np.array_equal(w, w_full) for w, w_full in zip(weights, weights_full))


def test_train_equals_full_path_with_sparse_features(tmp_path, monkeypatch):
    # Sparse enough that each split reads a strict subset of X's rows
    # when every restriction is built; the graph holds 2 triangles.
    write_planetoid_layout(tmp_path, seed=2, p_link=(0.1, 0.0))
    with pytest.warns(UserWarning, match="published"):
        ds, splits = load_planetoid(tmp_path, "cora")
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=9, max_epochs=30)
    m = build_model(config, ds.graph)
    with monkeypatch.context() as patch:
        patch.setattr(motifs, "FULL_FRACTION", np.inf)
        plans = [fit_plan(m, rows, ds.graph.features)
                 for rows in (splits.train, splits.validation, splits.test)]
    assert all(p.inputs.size < ds.graph.n_nodes for p in plans)
    (report, weights, protocol), (report_full, weights_full, protocol_full) = (
        full_path_runs(monkeypatch, config, ds, splits))
    assert report == report_full
    assert protocol == protocol_full
    assert all(np.array_equal(w, w_full) for w, w_full in zip(weights, weights_full))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_gradient_check_covers_dropout_masks(monkeypatch, sparse):
    # gradient_check trains with dropout on, so a backward pass that skips
    # the dense dropout mask of a hidden layer must fail it. A (1, 0)
    # network has no hidden layer, so it has no such mask to skip and
    # passes either way: only the other shapes catch that break.
    g = sparse_feature_graph(np.random.default_rng(5), n=12) if sparse else gradcheck_fixture()
    assert verify.GRADCHECK_DROPOUT > 0
    assert max(gradient_check(h1, h2, graph=g) for h1, h2 in GRADCHECK_SHAPES) < 1e-6
    original = verify.forward

    def maskless(*args, **kwargs):
        Z, tape = original(*args, **kwargs)
        return Z, [(Hin, None, H) for Hin, _, H in tape]

    monkeypatch.setattr(verify, "forward", maskless)
    errors = {shape: gradient_check(*shape, graph=g) for shape in GRADCHECK_SHAPES}
    assert errors.pop((1, 0)) < 1e-6
    assert min(errors.values()) > 1e-3


def test_gradient_check_through_restricted_operators(monkeypatch):
    # gradient_check trains on the even nodes. The odd nodes hang off them
    # in chains, so the train rows reach some in one hop, more in two
    # (through the wedge term), and nodes 9 and 11 (6 and 5 hops away)
    # never: no operator that train builds is the full one, and the
    # bottom layer reads a strict subset of X's rows, dense or sparse.
    rng = np.random.default_rng(5)
    pairs = 2 * np.argwhere(np.triu(rng.random((8, 8)) < 0.5, 1))
    chains = [(0, 1), (1, 3), (3, 5), (5, 7), (7, 9), (9, 11), (2, 13), (13, 15)]
    X = rng.standard_normal((16, 6))
    labels = rng.integers(0, 3, 16)
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    for features in (X, sp.csr_matrix(X * (rng.random((16, 6)) < 0.5))):
        g = Graph(16, np.vstack([pairs, chains]), features=features, labels=labels,
                  n_classes=3)
        for h1, h2 in ((2, 1), (1, 0)):
            m = build_model(ModelConfig(h1=h1, h2=h2, recipe=MIXED), g)
            # The walk finds the input rows of a CSR X.
            fit = fit_plan(m, np.arange(0, 16, 2), sp.csr_matrix(X))
            assert all(op is not m.mixed_matrix for op in fit.operators + fit.grad_operators)
            assert not np.isin([9, 11], fit.inputs).any()
            assert gradient_check(h1, h2, graph=g) < 1e-6


# ------------------------------------------ validation on the calling thread

@pytest.fixture
def passes(monkeypatch):
    """(thread, training) of each forward pass, in call order."""
    calls = []
    original = model_module.forward

    def spy(*args, **kwargs):
        calls.append((threading.current_thread(), kwargs.get("training", False)))
        return original(*args, **kwargs)

    monkeypatch.setattr(model_module, "forward", spy)
    return calls


def loop_dataset(sparse: bool, density: float = 0.3):
    g = random_graph(np.random.default_rng(4), 150, 0.012, feature_dim=10, n_classes=3)
    X = g.features
    if sparse:
        X = sp.csr_matrix(X * (np.random.default_rng(5).random(X.shape) < density))
    dataset = Dataset(Graph(g.n_nodes, g.edges, features=X, labels=g.labels, n_classes=3),
                      "loop")
    spec = SplitSpec(per_class_train=5, val_fraction=0.3, test_fraction=0.3)
    return dataset, make_splits(dataset, spec, seed=1)


LOOP_CASES = {
    "runs out": {"max_epochs": 25},
    "early stop": {"max_epochs": 200, "patience": 1, "learning_rate": 0.2},
    "one epoch": {"max_epochs": 1},
    "diverges": {"max_epochs": 50, "learning_rate": 1e200, "dropout": 0.0},
}


@pytest.mark.parametrize("case", LOOP_CASES)
@pytest.mark.parametrize("h1, h2", [(1, 0), (2, 1)])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_each_epoch_trains_then_validates_on_the_calling_thread(monkeypatch, passes, case,
                                                                h1, h2, sparse):
    # Every epoch runs its training pass and then its validation pass,
    # both on the calling thread, and the final test pass follows.
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)  # S only where R is every row
    dataset, splits = loop_dataset(sparse)
    config = ModelConfig(h1=h1, h2=h2, hidden_dim=8, recipe=MIXED, seed=7,
                         **LOOP_CASES[case])
    if case == "diverges":
        with pytest.raises(TrainingDiverged) as diverged:
            train(config, dataset, splits)
        assert diverged.value.epoch == 2
        expected = [True, False, True]  # epoch 1, then epoch 2's training pass
    else:
        _, report = train(config, dataset, splits)
        if case == "early stop":
            assert report.epochs_run < config.max_epochs
        expected = [True, False] * report.epochs_run + [False]  # and the test pass
    assert {t for t, _ in passes} == {threading.current_thread()}
    assert [training for _, training in passes] == expected


def test_validation_error_comes_out_of_train(monkeypatch):
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    dataset, splits = loop_dataset(sparse=False)
    raised_on = []

    def broken(*args):
        raised_on.append(threading.current_thread())
        raise ArithmeticError("validation failed")

    monkeypatch.setattr(model_module, "_accuracy", broken)
    with pytest.raises(ArithmeticError, match="validation failed"):
        train(ModelConfig(h1=2, h2=1, recipe=MIXED, max_epochs=5), dataset, splits)
    assert raised_on == [threading.current_thread()]


def test_step_after_the_last_epoch_is_thrown_away(monkeypatch):
    # No training step runs after the epoch that stops the run: the loss
    # is computed once per epoch run.
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    dataset, splits = loop_dataset(sparse=True)
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=7, patience=1, learning_rate=0.2)
    losses = []
    original = model_module.regularized_loss
    monkeypatch.setattr(model_module, "regularized_loss",
                        lambda *args: losses.append(1) or original(*args))
    _, report = train(config, dataset, splits)
    assert report.epochs_run < config.max_epochs
    assert len(losses) == report.epochs_run


@pytest.mark.parametrize("h1", [1, 2])
def test_plans_find_input_rows_only_for_sparse_features(monkeypatch, h1):
    # A dense X is read whole, so the walk skips the hop to its input rows;
    # a CSR X is read on those rows, and training dropout keeps their
    # values at positions found once per plan.
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    dataset, splits = loop_dataset(sparse=True)
    X = dataset.graph.features
    m = build_model(ModelConfig(h1=h1, h2=0, recipe=MIXED), dataset.graph)
    hops = []
    walk_step = motifs.MixedOperator.reads
    monkeypatch.setattr(motifs.MixedOperator, "reads",
                        lambda S, *args: hops.append(1) or walk_step(S, *args))
    for features, input_hop in ((X.toarray(), 0), (X, 1)):
        hops.clear()
        fit = fit_plan(m, splits.train, features)
        assert len(hops) == h1 - 1 + input_hop
        if input_hop:
            assert np.array_equal(fit.inputs,
                                  m.mixed_matrix.walk(np.unique(splits.train), h1)[1])
            assert np.array_equal(fit.stored, nn.stored_in(X.indptr, fit.inputs))
            assert eval_plan(m, splits.validation, features).stored is None
        else:
            assert fit.inputs is fit.stored is eval_plan(m, splits.validation,
                                                           features).inputs is None


def test_training_finds_dropout_positions_once(monkeypatch):
    # Positions are found per train call, never per epoch.
    dataset, splits = loop_dataset(sparse=True)
    found = []
    original = nn.stored_in
    monkeypatch.setattr(nn, "stored_in", lambda *args: found.append(1) or original(*args))
    counts = []
    for epochs in (2, 6):
        found.clear()
        _, report = train(ModelConfig(h1=1, h2=0, recipe=MIXED, max_epochs=epochs,
                                      patience=10), dataset, splits)
        assert report.epochs_run == epochs
        counts.append(len(found))
    assert counts[0] == counts[1] >= 1


# ------------------------------------------------ the validation first hop

@pytest.mark.parametrize("h1, h2", [(1, 0), (2, 1)])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_first_hop_pass_equals_full_path(monkeypatch, h1, h2, sparse):
    # A fully stored CSR X reads more values than |R|·F, as a dense one
    # does, so both carry the first hop. The pass with it sums in another
    # order than the full path, so it agrees to rounding, not bit for bit.
    dataset, splits = loop_dataset(sparse, density=1.0)
    X, y, val = dataset.graph.features, dataset.graph.labels, splits.validation
    m = build_model(ModelConfig(h1=h1, h2=h2, hidden_dim=8, recipe=MIXED, seed=7),
                    dataset.graph)
    plans = []
    for fraction in (np.inf, -1.0):  # restricted, then S at every layer
        monkeypatch.setattr(motifs, "FULL_FRACTION", fraction)
        plans.append(eval_plan(m, val, X))
    plan, full_plan = plans
    R = m.mixed_matrix.walk(np.unique(val), h1)[0][0][0]
    assert R.size < X.shape[0] and plan.inputs is None
    assert plan.X.shape == (R.size, X.shape[1])
    # Its bottom operator E_R places row i of the first hop at row R[i].
    assert np.array_equal(plan.operators[0].toarray(), np.eye(X.shape[0])[:, R])
    # The first hop does not depend on whether a restriction fell back to S.
    assert np.array_equal(plan.X, full_plan.X)
    Z, Z_full = forward(m, plan.X, plan=plan), forward(m, X)
    np.testing.assert_allclose(Z[val], Z_full[val], rtol=1e-12, atol=0)
    assert nn.cross_entropy_loss(Z, y, val) == pytest.approx(
        nn.cross_entropy_loss(Z_full, y, val), rel=1e-12, abs=0)
    # A whole X given to a first-hop plan does not match E_R's columns.
    with pytest.raises(ValueError, match="bottom operator"):
        forward(m, X, plan=plan)


def test_sparse_features_read_on_few_rows_form_no_first_hop(monkeypatch):
    # 30% of X is stored, so the validation rows read fewer values than
    # |R|·F: the plan keeps X's input rows, and train slices X to them
    # once for all its validation passes, as it slices X once to the
    # train rows' input rows for all its training passes.
    dataset, splits = loop_dataset(sparse=True)
    X, val = dataset.graph.features, splits.validation
    config = ModelConfig(h1=1, h2=0, recipe=MIXED, max_epochs=3)
    m = build_model(config, dataset.graph)
    plan = eval_plan(m, val, X)
    assert isinstance(plan.operators[0], motifs.MixedOperator) and plan.X.shape == X.shape
    assert np.array_equal(plan.inputs, fit_plan(m, val, X).inputs)
    assert plan.outputs.size * X.shape[1] > np.diff(X.indptr)[plan.inputs].sum()
    fit = fit_plan(m, splits.train, X)
    assert fit.inputs.size < X.shape[0]
    sliced = []
    keep_rows = nn.keep_rows
    monkeypatch.setattr(nn, "keep_rows", lambda H, rows: sliced.append(rows) or keep_rows(H, rows))
    train(config, dataset, splits)
    assert len(sliced) == 2
    assert np.array_equal(sliced[0], fit.inputs) and np.array_equal(sliced[1], plan.inputs)


def test_evaluate_reads_sparse_features_whole(monkeypatch):
    # evaluate runs one pass, so it does not slice X; a CSR product rounds
    # alike on any rows, so its accuracy is that of the sliced pass.
    dataset, splits = loop_dataset(sparse=True)
    X, y, test = dataset.graph.features, dataset.graph.labels, splits.test
    m = build_model(ModelConfig(h1=2, h2=1, recipe=MIXED, seed=2), dataset.graph)
    plan = fit_plan(m, test, X)
    sliced = forward(m, plan.X, plan=plan)
    assert np.array_equal(forward(m, X, plan=plan)[test], sliced[test])
    monkeypatch.setattr(nn, "keep_rows", None)
    assert evaluate(m, X, y, test) == np.mean(sliced[test].argmax(axis=1) == y[test])


# --------------------------------------------- plans shared across seeds

def planetoid_csr(directory):
    write_planetoid_layout(directory)
    with pytest.warns(UserWarning, match="published"):
        return load_planetoid(directory, "cora")


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
def test_shared_plans_equal_separate_trains(small_dataset, small_splits, tmp_path,
                                            threads, csr):
    # The plans are a function of the mix, h1, X and the splits, so the
    # seeds sharing them report what a lone train call, building its own
    # plans and mix, reports. A short switch interval interleaves the
    # threads reading the shared plans often.
    dataset, splits = planetoid_csr(tmp_path) if csr else (small_dataset, small_splits)
    assert sp.issparse(dataset.graph.features) == csr
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=9, max_epochs=40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = model_module._train_seeds(config, dataset, splits, 4, threads)
    finally:
        sys.setswitchinterval(interval)
    for i, report in enumerate(reports):
        assert report == train(dataclasses.replace(config, seed=9 + i), dataset, splits)[1]


def test_train_seeds_builds_the_plans_once(small_dataset, small_splits, monkeypatch):
    calls = {"fit_plan": 0, "eval_plan": 0}
    for name in calls:
        original = getattr(model_module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(model_module, name, counted)
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, max_epochs=5)
    assert len(model_module._train_seeds(config, small_dataset, small_splits, 4, 2)) == 4
    assert calls == {"fit_plan": 1, "eval_plan": 1}


def test_train_seeds_checks_before_mixing(small_dataset, small_splits, monkeypatch):
    mixes = []
    original = motifs.mix_matrices

    def counted(*args):
        mixes.append(1)
        return original(*args)

    # model.py holds its own name for the function; count either.
    monkeypatch.setattr(motifs, "mix_matrices", counted)
    monkeypatch.setattr(model_module, "mix_matrices", counted)
    config = ModelConfig(h1=1, h2=0, recipe=MIXED, max_epochs=2)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_protocol(config, small_dataset, small_splits, n_runs=2, threads=0)
    bad = dataclasses.replace(small_splits, test=np.append(small_splits.test, 10**6))
    with pytest.raises(ValueError, match="test split index out of range"):
        run_protocol(config, small_dataset, bad, n_runs=2, threads=2)
    assert mixes == []
    run_protocol(config, small_dataset, small_splits, n_runs=2, threads=2)
    assert mixes == [1]


def test_train_refuses_plans_built_for_other_inputs(small_dataset, small_splits, monkeypatch):
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, max_epochs=3)
    plans = split_plans(config, small_dataset, small_splits)
    assert train(config, small_dataset, small_splits, plans.mixed, plans=plans)[1] == (
        train(config, small_dataset, small_splits, plans=plans)[1])

    def no_epochs(*args, **kwargs):
        raise AssertionError("an epoch ran with plans built for other inputs")

    monkeypatch.setattr(model_module, "forward", no_epochs)
    g = small_dataset.graph
    copied = Dataset(Graph(g.n_nodes, g.edges, features=g.features.copy(), labels=g.labels,
                           n_classes=g.n_classes), "copied features")
    swapped = dataclasses.replace(small_splits, validation=small_splits.test,
                                  test=small_splits.validation)
    cases = [
        (config, small_dataset, small_splits, motifs.mix_matrices(MIXED, g)),
        (dataclasses.replace(config, h1=1), small_dataset, small_splits, None),
        (config, copied, small_splits, None),
        (config, small_dataset, swapped, None),
    ]
    for cfg, dataset, splits, mixed in cases:
        with pytest.raises(ValueError, match="plans were built for another"):
            train(cfg, dataset, splits, mixed, plans=plans)


@pytest.mark.parametrize("density", [0.3, 1.0], ids=["sliced", "first-hop"])
def test_shared_plans_are_read_only(monkeypatch, density):
    # Every seed's thread reads the same plans. At density 0.3 the
    # validation pass reads a slice of X; at 1.0 it reads the first hop,
    # placed by its bottom operator E_R.
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    dataset, splits = loop_dataset(sparse=True, density=density)
    plans = split_plans(ModelConfig(h1=2, h2=1, recipe=MIXED), dataset, splits)
    fit, val = plans.fit, plans.val
    assert fit.X is not dataset.graph.features
    parts = [plans.train, plans.validation, plans.test,
             fit.inputs, fit.outputs, fit.stored, val.outputs,
             fit.X.data, fit.X.indices, fit.X.indptr]
    if density < 1:
        assert sp.issparse(val.X) and val.X is not dataset.graph.features
        parts += [val.inputs, val.X.data, val.X.indices, val.X.indptr]
    else:
        place = val.operators[0]
        assert val.inputs is None and not sp.issparse(val.X)
        parts += [val.X, place.data, place.indices, place.indptr]
    for part in parts:
        assert part.size
        with pytest.raises(ValueError, match="read-only"):
            part[:1] = 0


def test_training_passes_mask_the_sliced_block_in_place(monkeypatch):
    # X is sliced once per plan; each training pass's dropout masks that
    # block, so its layer-0 input shares the block's index arrays.
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    dataset, splits = loop_dataset(sparse=True)
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, max_epochs=4, patience=10)
    plans = split_plans(config, dataset, splits)
    X_fit = plans.fit.X
    assert X_fit.nnz < dataset.graph.features.nnz
    inputs = []
    original = model_module.forward

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        if kwargs.get("training"):
            inputs.append(out[1][0][0])  # the tape's layer-0 Hin
        return out

    monkeypatch.setattr(model_module, "forward", recording)
    _, report = train(config, dataset, splits, plans=plans)
    assert len(inputs) == report.epochs_run == 4
    for Hin in inputs:
        assert sp.issparse(Hin) and Hin.nnz == X_fit.nnz
        assert np.shares_memory(Hin.indices, X_fit.indices)
        assert np.shares_memory(Hin.indptr, X_fit.indptr)
