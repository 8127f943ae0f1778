import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from motifgcn.cli import main
from motifgcn.data import (
    DataError,
    Dataset,
    SplitSpec,
    Splits,
    load_ego_facebook,
    load_generic,
    load_planetoid,
    make_splits,
)
from motifgcn.graph import UNLABELED
from motifgcn.synthetic import two_community_dataset, write_generic_files


# ------------------------------------------------------------ generic files

def write(path, text):
    path.write_text(text)
    return path


def test_load_generic_k3(tmp_path):
    e = write(tmp_path / "e.txt", "0 1\n1 2\n0 2\n")
    f = write(tmp_path / "f.csv", "0,1.0\n1,2.0\n2,3.0\n")
    l = write(tmp_path / "l.csv", "0,a\n1,b\n2,a\n")
    ds = load_generic(e, f, l)
    g = ds.graph
    assert g.n_nodes == 3 and g.n_edges == 3
    assert g.n_classes == 2
    assert list(g.labels) == [0, 1, 0]


def test_load_generic_remaps_sparse_ids(tmp_path):
    e = write(tmp_path / "e.txt", "10 30\n30 77\n")
    f = write(tmp_path / "f.csv", "10,1\n30,1\n77,1\n")
    l = write(tmp_path / "l.csv", "10,x\n30,y\n77,x\n")
    ds = load_generic(e, f, l)
    assert ds.graph.n_nodes == 3
    assert ds.node_ids == (10, 30, 77)


def test_load_generic_duplicate_edges_warn(tmp_path):
    e = write(tmp_path / "e.txt", "0 1\n1 0\n1 2\n")
    f = write(tmp_path / "f.csv", "0,1\n1,1\n2,1\n")
    l = write(tmp_path / "l.csv", "0,a\n1,b\n2,a\n")
    with pytest.warns(UserWarning, match="1 duplicate"):
        ds = load_generic(e, f, l)
    assert ds.graph.n_edges == 2
    assert ds.graph.dropped_duplicates == 1


def test_load_generic_dangling_label_id_is_isolated(tmp_path):
    e = write(tmp_path / "e.txt", "0 1\n")
    f = write(tmp_path / "f.csv", "0,1\n1,1\n")
    l = write(tmp_path / "l.csv", "0,a\n1,b\n9,a\n")
    ds = load_generic(e, f, l)
    assert ds.graph.n_nodes == 3
    iso = ds.node_ids.index(9)
    assert ds.graph.degrees()[iso] == 0
    assert ds.graph.labels[iso] == 0  # class 'a'


def test_load_generic_parse_error_names_line(tmp_path):
    e = write(tmp_path / "e.txt", "0 1\nnot-an-id 2\n")
    f = write(tmp_path / "f.csv", "0,1\n")
    l = write(tmp_path / "l.csv", "0,a\n1,b\n")
    with pytest.raises(DataError, match="line 2"):
        load_generic(e, f, l)


def test_generic_round_trip(tmp_path):
    ds = two_community_dataset(16, seed=2)
    write_generic_files(ds, tmp_path)
    back = load_generic(tmp_path / "edges.txt", tmp_path / "features.csv",
                        tmp_path / "labels.csv")
    assert back.graph.n_nodes == ds.graph.n_nodes
    assert np.array_equal(back.graph.edges, ds.graph.edges)
    assert np.allclose(back.graph.features, ds.graph.features)
    assert np.array_equal(back.graph.labels, ds.graph.labels)


# --------------------------------------------------------- planetoid format

def _dump(path, obj):
    with open(path, "wb") as fh:
        pickle.dump(obj, fh)


def make_planetoid_fixture(tmp_path, name="cora", isolated=False):
    """Miniature dataset in the standard 8-file layout.

    Nodes 0-5 come from allx (2 of them labeled-train), the rest from tx.
    With isolated=True the test index range has a hole at node 7 (test
    docs 6 and 8), exercising the zero-row padding path.
    """
    T, L = 4, 2
    rng = np.random.default_rng(0)
    allx = sp.csr_matrix(rng.random((6, T)))
    x = allx[:2]
    ally = np.eye(L)[[0, 1, 0, 1, 0, 1]]
    y = ally[:2]
    graph = {0: [1, 2], 1: [0], 2: [0, 3, 2], 3: [2], 4: [5], 5: [4, 6]}
    if isolated:
        test_idx = [8, 6]
        tx = sp.csr_matrix(rng.random((2, T)))  # rows for docs 6 and 8
        ty = np.eye(L)[[1, 0]]
        graph.update({6: [5], 8: [0]})
    else:
        test_idx = [7, 6]
        tx = sp.csr_matrix(rng.random((2, T)))
        ty = np.eye(L)[[1, 0]]
        graph.update({6: [5, 7], 7: [6]})
    for part, obj in [("x", x), ("y", y), ("tx", tx), ("ty", ty),
                      ("allx", allx), ("ally", ally), ("graph", graph)]:
        _dump(tmp_path / f"ind.{name}.{part}", obj)
    (tmp_path / f"ind.{name}.test.index").write_text(
        "\n".join(str(i) for i in test_idx) + "\n"
    )


def test_load_planetoid_mini(tmp_path):
    make_planetoid_fixture(tmp_path)
    with pytest.warns(UserWarning, match="published"):
        ds, splits = load_planetoid(tmp_path, "cora")
    g = ds.graph
    assert g.n_nodes == 8
    assert g.feature_dim == 4
    assert g.n_classes == 2
    # graph dict listed some edges in one direction only and one self-loop
    assert g.n_edges == 6
    # row-normalized features
    assert np.allclose(g.features.sum(axis=1), 1.0)
    assert list(splits.train) == [0, 1]
    assert list(splits.validation) == [2, 3, 4, 5]
    assert list(splits.test) == [6, 7]


def test_load_planetoid_isolated_test_nodes(tmp_path):
    make_planetoid_fixture(tmp_path, isolated=True)
    with pytest.warns(UserWarning):
        ds, splits = load_planetoid(tmp_path, "cora")
    g = ds.graph
    assert g.n_nodes == 9
    # node 7 sits in the test-index hole: zero features, unlabeled
    assert np.all(g.features[7].toarray() == 0)
    assert g.labels[7] == UNLABELED
    assert list(splits.test) == [6, 8]
    assert 7 not in set(splits.validation)


def test_load_planetoid_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing"):
        load_planetoid(tmp_path, "cora")
    with pytest.raises(DataError, match="unknown"):
        load_planetoid(tmp_path, "webkb")


@pytest.mark.parametrize("part, content, where", [
    ("test.index", b"7\nseven\n", " line 2: bad test index"),
    ("test.index", b"7\n5\n", ": test index 5 is below len(allx) = 6"),
    ("x", b"garbage that is no pickle", " is not a readable pickle"),
    ("x", b"", " is not a readable pickle"),
    ("test.index", b"", ": lists no test index"),
    ("test.index", b"7\n7\n", ": lists test indices [7] more than once"),
    ("test.index", b"7\n", ": lists 1 test indices for the 2 rows of "),
    ("ty", pickle.dumps(np.eye(3)[[1, 0]]), ": has shape (2, 3), not (2, 2) as "),
    ("allx", pickle.dumps(sp.csr_matrix(np.ones((6, 5)))), ": has 5 columns but "),
    ("y", pickle.dumps(np.eye(2)[[0] * 7]), ": has 7 rows, more than the 6 of "),
    ("ally", pickle.dumps(np.eye(2)[[0, 1, 0, 1, 0]]), ": has shape (5, 2) but "),
    ("graph", pickle.dumps([[1], [0]]), ": holds a list, not a dict of adjacency lists"),
], ids=["index-not-int", "index-below-allx", "garbage-pickle", "empty-pickle",
        "index-empty", "index-repeated", "index-short", "ty-wide", "allx-wide",
        "y-long", "ally-short", "graph-list"])
def test_malformed_planetoid_file_exits_1_naming_it(tmp_path, capsys, part, content,
                                                     where):
    make_planetoid_fixture(tmp_path)
    bad = tmp_path / f"ind.cora.{part}"
    bad.write_bytes(content)
    code = main(["motif-stats", "--dataset", "planetoid:cora",
                 "--data-root", str(tmp_path)])
    assert code == 1
    assert f"{bad}{where}" in capsys.readouterr().err


# --------------------------------------------------------------- ego format

def make_ego_fixture(tmp_path, ego=99):
    write(tmp_path / f"{ego}.feat",
          "1 1 0\n2 0 1\n3 1 1\n4 0 0\n5 1 0\n")
    write(tmp_path / f"{ego}.egofeat", "1 1\n")
    write(tmp_path / f"{ego}.circles",
          "circle0\t1\t2\t3\ncircle1\t3\t4\ncircle2\t\n".replace("\t\n", "\n"))
    write(tmp_path / f"{ego}.edges", "1 2\n2 3\n3 4\n4 5\n1 3\n")
    write(tmp_path / f"{ego}.featnames", "0 f0\n1 f1\n2 f2\n")


def test_load_ego_fixture(tmp_path):
    make_ego_fixture(tmp_path)
    ds = load_ego_facebook(tmp_path, 99)
    g = ds.graph
    # node 5 has no circle, the ego node has no circle: both dropped
    assert ds.node_ids == (1, 2, 3, 4)
    assert g.n_nodes == 4
    # multi-circle node 3 takes its lowest circle
    assert g.labels[ds.node_ids.index(3)] == 0
    assert g.labels[ds.node_ids.index(4)] == 1
    # edge 4-5 dropped with node 5
    assert g.n_edges == 4
    assert g.n_classes == 2


def test_load_ego_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing"):
        load_ego_facebook(tmp_path, 4242)


@pytest.mark.parametrize("suffix, text, where", [
    ("circles", "circle0 1 2 3\ncircle1 3 four\n", "line 2: bad node id"),
    ("feat", "1 1 0\n2 0 x\n3 1 1\n", "line 2: bad feature value"),
    ("feat", "1 1 0\n2 0 1\n3 1\n", "line 3: expected 2 feature values, got 1"),
], ids=["circles-id-not-int", "feat-not-float", "feat-ragged"])
def test_malformed_ego_file_exits_1_naming_file_and_line(tmp_path, capsys, suffix, text,
                                                         where):
    make_ego_fixture(tmp_path)
    bad = write(tmp_path / f"99.{suffix}", text)
    code = main(["motif-stats", "--dataset", "ego:99", "--data-root", str(tmp_path)])
    assert code == 1
    assert f"{bad} {where}" in capsys.readouterr().err


def test_ego_files_take_comments(tmp_path):
    make_ego_fixture(tmp_path)
    plain = load_ego_facebook(tmp_path, 99)
    for suffix in ("feat", "egofeat", "circles", "edges"):
        path = tmp_path / f"99.{suffix}"
        path.write_text("# header\n" + path.read_text().replace("\n", "  # note\n", 1))
    commented = load_ego_facebook(tmp_path, 99)
    assert commented.node_ids == plain.node_ids
    assert np.array_equal(commented.graph.edges, plain.graph.edges)
    assert np.array_equal(commented.graph.features, plain.graph.features)
    assert np.array_equal(commented.graph.labels, plain.graph.labels)


# -------------------------------------------------------------------- splits

def test_make_splits_basic():
    ds = two_community_dataset(24, seed=0)
    splits = make_splits(ds, SplitSpec(4, 0.25, 0.25), seed=5)
    assert splits.train.size == 8
    assert splits.validation.size == 6
    assert splits.test.size == 6
    labels = ds.graph.labels
    for cls in (0, 1):
        assert (labels[splits.train] == cls).sum() == 4


def test_make_splits_deterministic():
    ds = two_community_dataset(24, seed=0)
    a = make_splits(ds, SplitSpec(4, 0.2, 0.3), seed=9)
    b = make_splits(ds, SplitSpec(4, 0.2, 0.3), seed=9)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.validation, b.validation)
    assert np.array_equal(a.test, b.test)
    c = make_splits(ds, SplitSpec(4, 0.2, 0.3), seed=10)
    assert not np.array_equal(a.validation, c.validation)


def test_make_splits_small_class_errors():
    ds = two_community_dataset(10, seed=3)
    with pytest.raises(DataError, match="class"):
        make_splits(ds, SplitSpec(per_class_train=20), seed=0)
    relaxed = make_splits(
        ds, SplitSpec(per_class_train=20, val_fraction=0.1, test_fraction=0.1,
                      allow_small_classes=True), seed=0)
    assert relaxed.train.size > 0


def test_make_splits_per_class_one():
    ds = two_community_dataset(8, seed=1)
    splits = make_splits(ds, SplitSpec(1, 0.25, 0.25), seed=0)
    assert splits.train.size == 2


def test_splits_validation():
    with pytest.raises(DataError):
        Splits(np.array([], dtype=np.int64), np.array([1]), np.array([2]))
    with pytest.raises(DataError):
        Splits(np.array([0, 1]), np.array([1]), np.array([2]))


def test_dataset_requires_two_classes():
    from motifgcn.graph import Graph

    g = Graph(3, [(0, 1)], features=np.zeros((3, 2)),
              labels=np.array([0, 0, 0]), n_classes=1)
    with pytest.raises(DataError):
        Dataset(g, "mono")
