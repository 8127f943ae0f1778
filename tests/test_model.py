import dataclasses
import pickle
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.data import SplitSpec, Splits, load_planetoid, make_splits
from motifgcn.graph import Graph, build_adjacency
from motifgcn import model as model_module, motifs
from motifgcn.motifs import MixRecipe, normalize_symmetric
from motifgcn.model import (
    ModelConfig,
    TrainingDiverged,
    backward,
    build_model,
    evaluate,
    fit_operators,
    forward,
    grid_search,
    row_operators,
    run_protocol,
    train,
)
from motifgcn.synthetic import two_community_dataset
from motifgcn.verify import gradient_check, random_graph

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


def dense_row_sets(m, rows) -> list:
    """Each GCN layer's rows in forward order, read off S's dense pattern
    one layer at a time: the stored pattern of P, and that of A @ A when
    the mix has a wedge term."""
    S = m.mixed_matrix
    reads = sp.csr_matrix((np.ones(S.P.nnz), S.P.indices, S.P.indptr), S.shape).toarray() > 0
    if S.c:
        reads |= (S.A @ S.A).toarray() > 0
    sets = [np.unique(rows)]
    for _ in range(m.config.h1 - 1):
        sets.append(np.flatnonzero(reads[sets[-1]].any(axis=0)))
    return sets[::-1]


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
    S, everything = m.mixed_matrix, np.arange(30)
    for rows in (rng.choice(30, 2, replace=False), rng.choice(30, 6, replace=False)):
        fit_ops, grad_ops = fit_operators(m, rows)
        expected = dense_row_sets(m, rows)
        for ops, side in ((fit_ops, "rows"), (grad_ops, "columns"),
                          (row_operators(m, rows), "rows")):
            got = [everything if op is S else getattr(op, side) for op in ops]
            assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))


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


def write_planetoid_layout(directory, n=40, n_features=30, seed=0):
    """Two planted communities with sparse binary features in the Planetoid
    8-file layout: nodes 0-7 train, 8-27 validation, 28-39 test."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    same = labels[:, None] == labels[None, :]
    linked = np.triu(rng.random((n, n)) < np.where(same, 0.3, 0.02), 1)
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
    write_planetoid_layout(tmp_path)
    with pytest.warns(UserWarning, match="published"):
        ds, splits = load_planetoid(tmp_path, "cora")
    config = ModelConfig(h1=2, h2=1, recipe=MIXED, seed=9, max_epochs=30)
    (report, weights, protocol), (report_full, weights_full, protocol_full) = (
        full_path_runs(monkeypatch, config, ds, splits))
    assert report == report_full
    assert protocol == protocol_full
    assert all(np.array_equal(w, w_full) for w, w_full in zip(weights, weights_full))


def test_gradient_check_through_restricted_operators(monkeypatch):
    # gradient_check trains on the even nodes. The odd nodes hang off them
    # in chains, so the train rows reach some in one hop, more in two
    # (through the wedge term), and nodes 5 and 15 never: no operator that
    # train builds is the full one.
    rng = np.random.default_rng(5)
    pairs = 2 * np.argwhere(np.triu(rng.random((8, 8)) < 0.5, 1))
    chains = [(0, 1), (1, 3), (3, 5), (2, 7), (7, 9), (4, 11), (11, 13), (13, 15)]
    g = Graph(16, np.vstack([pairs, chains]), features=rng.standard_normal((16, 6)),
              labels=rng.integers(0, 3, 16), n_classes=3)
    monkeypatch.setattr(motifs, "FULL_FRACTION", np.inf)
    for h1, h2 in ((2, 1), (1, 0)):
        m = build_model(ModelConfig(h1=h1, h2=h2, recipe=MIXED), g)
        fit_ops, grad_ops = fit_operators(m, np.arange(0, 16, 2))
        assert all(op is not m.mixed_matrix for op in fit_ops + grad_ops)
        assert gradient_check(h1, h2, graph=g) < 1e-6
