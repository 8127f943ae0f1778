"""Dataset loaders and split construction.

Three input formats are supported:

* Planetoid-style citation networks (cora / citeseer / pubmed), read
  from the standard 8-file pickled layout (``ind.<name>.x`` etc.).
* Facebook ego networks, read from ``<id>.edges`` / ``<id>.feat`` /
  ``<id>.egofeat`` / ``<id>.circles`` / ``<id>.featnames``.
* A generic whitespace/CSV format used for fixtures and tests (see
  docs/generic_format.md).

All loaders remap external node IDs to contiguous integers [0, N) and
keep the mapping on the Dataset.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Graph, UNLABELED

__all__ = [
    "Dataset",
    "Splits",
    "SplitSpec",
    "DataError",
    "load_planetoid",
    "load_ego_facebook",
    "load_generic",
    "make_splits",
]


class DataError(ValueError):
    pass


# Published undirected edge counts used for the +-1% load-time sanity gate.
EXPECTED_EDGES = {"cora": 5429, "citeseer": 4732, "pubmed": 44338}

PLANETOID_PARTS = ["x", "y", "tx", "ty", "allx", "ally", "graph"]


@dataclass(frozen=True)
class Dataset:
    graph: Graph
    name: str
    class_names: tuple | None = None
    node_ids: tuple | None = None  # original external IDs, index-aligned

    def __post_init__(self):
        labels = self.graph.labels
        if labels is None or len(set(labels[labels != UNLABELED].tolist())) < 2:
            raise DataError("dataset must contain at least 2 label classes")


@dataclass(frozen=True)
class Splits:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        tr = np.asarray(self.train, dtype=np.int64)
        va = np.asarray(self.validation, dtype=np.int64)
        te = np.asarray(self.test, dtype=np.int64)
        if tr.size == 0:
            raise DataError("train split is empty")
        all_idx = np.concatenate([tr, va, te])
        if all_idx.size != np.unique(all_idx).size:
            raise DataError("splits are not pairwise disjoint")
        if all_idx.min() < 0:
            raise DataError("negative split index")
        object.__setattr__(self, "train", tr)
        object.__setattr__(self, "validation", va)
        object.__setattr__(self, "test", te)


@dataclass(frozen=True)
class SplitSpec:
    per_class_train: int = 20
    val_fraction: float = 0.15
    test_fraction: float = 0.30
    # When set, classes smaller than per_class_train contribute all but one
    # node to training instead of raising.
    allow_small_classes: bool = False

    def __post_init__(self):
        if self.per_class_train < 1:
            raise ValueError("per_class_train must be >= 1")
        if not (0 < self.val_fraction and 0 < self.test_fraction
                and self.val_fraction + self.test_fraction < 1):
            raise ValueError("val_fraction and test_fraction must be > 0 "
                             "with a sum below 1")


def _row_normalize(X: sp.csr_matrix) -> sp.csr_matrix:
    """Divide each row by its sum (zero rows stay zero); keeps CSR sparse."""
    X = sp.csr_matrix(X, dtype=np.float64, copy=True)
    s = np.asarray(X.sum(axis=1)).ravel()
    s[s == 0] = 1.0
    X.data /= np.repeat(s, np.diff(X.indptr))
    return X


def _read_text(path) -> str:
    """The file's text, decoded as UTF-8; DataError names a file that is not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_pickle(path: Path):
    with open(path, "rb") as fh:
        return pickle.load(fh, encoding="latin1")


def load_planetoid(directory, name: str):
    """Load a citation network plus its canonical public split.

    The split is 20 labeled nodes per class for training (the first
    len(y) rows), the following 500 nodes for validation, and the file's
    test indices for testing. Citeseer's isolated test nodes receive
    zero feature rows and stay unlabeled, per the standard reindexing.
    Features are row-normalized, as in Kipf & Welling's GCN, and stay a
    scipy CSR matrix.
    """
    name = name.lower()
    if name not in EXPECTED_EDGES:
        raise DataError(f"unknown citation dataset {name!r}")
    directory = Path(directory)
    parts = {}
    for part in PLANETOID_PARTS:
        path = directory / f"ind.{name}.{part}"
        if not path.exists():
            raise DataError(f"missing dataset file: {path}")
        parts[part] = _load_pickle(path)
    index_path = directory / f"ind.{name}.test.index"
    if not index_path.exists():
        raise DataError(f"missing dataset file: {index_path}")
    test_idx = np.array(
        [int(line) for line in _read_text(index_path).split()], dtype=np.int64
    )
    test_range = np.sort(test_idx)

    allx, tx = sp.csr_matrix(parts["allx"]), sp.csr_matrix(parts["tx"])
    ally, ty = np.asarray(parts["ally"]), np.asarray(parts["ty"])
    n_labeled_train = np.asarray(parts["y"]).shape[0]

    full = int(test_range.max()) + 1
    span = np.arange(test_range.min(), full)
    if span.size != test_idx.size:
        # Isolated test documents: pad features/labels with zero rows.
        tx_full = sp.lil_matrix((span.size, tx.shape[1]))
        tx_full[test_range - span.min(), :] = tx
        tx = sp.csr_matrix(tx_full)
        ty_full = np.zeros((span.size, ty.shape[1]))
        ty_full[test_range - span.min(), :] = ty
        ty = ty_full

    onehot = np.vstack([ally, ty])
    n = onehot.shape[0]
    # Test rows are stored in sorted order; row test_idx[i] takes row
    # test_range[i].
    order = np.arange(n)
    order[test_idx] = test_range
    features = sp.vstack([allx, tx], format="csr")[order]
    onehot = onehot[order]

    labels = np.full(n, UNLABELED, dtype=np.int64)
    has_label = onehot.sum(axis=1) > 0
    labels[has_label] = onehot[has_label].argmax(axis=1)

    edges = [(u, v) for u, nbrs in parts["graph"].items() for v in nbrs]
    graph = Graph.from_edge_list(
        n,
        edges,
        features=_row_normalize(features),
        labels=labels,
        n_classes=onehot.shape[1],
    )
    expected = EXPECTED_EDGES[name]
    if abs(graph.n_edges - expected) > 0.01 * expected:
        warnings.warn(
            f"{name}: loaded {graph.n_edges} undirected edges, published "
            f"count is {expected} (raw citation lists contain duplicates)"
        )
    # Canonical public split: first len(y) nodes train, next 500 validation.
    # Clipping matters only for reduced fixture datasets.
    val_stop = min(n_labeled_train + 500, n)
    validation = np.setdiff1d(np.arange(n_labeled_train, val_stop), test_range)
    validation = validation[labels[validation] != UNLABELED]
    splits = Splits(
        train=np.arange(n_labeled_train),
        validation=validation,
        test=test_range,
    )
    return Dataset(graph, name), splits


def load_ego_facebook(directory, ego_id: int) -> Dataset:
    """Load one Facebook ego network with circle-derived labels.

    Nodes without features or without any circle membership are removed
    and the rest reindexed. Multi-circle nodes take their lowest-index
    circle as label. The ego node, which belongs to no circle, is
    therefore dropped unless a circle happens to list it; if one does,
    it keeps its ``egofeat`` row and an edge to every other kept node.
    Features are used as read.
    """
    directory = Path(directory)

    def read(suffix):
        path = directory / f"{ego_id}.{suffix}"
        if not path.exists():
            raise DataError(f"missing ego-network file: {path}")
        return _read_text(path)

    feat_lines = read("feat").split("\n")
    features = {}
    for line in feat_lines:
        if not line.strip():
            continue
        vals = line.split()
        features[int(vals[0])] = np.array([float(v) for v in vals[1:]])
    egofeat = read("egofeat").split()
    if egofeat:
        features[ego_id] = np.array([float(v) for v in egofeat])

    circles = []
    for line in read("circles").split("\n"):
        if not line.strip():
            continue
        toks = line.split()
        circles.append([int(t) for t in toks[1:]])

    labels = {}
    for node in features:
        member_of = [i for i, c in enumerate(circles) if node in c]
        if member_of:
            labels[node] = min(member_of)

    kept = sorted(labels)
    if not kept:
        raise DataError(f"ego network {ego_id}: no labeled nodes after filtering")
    index = {node: i for i, node in enumerate(kept)}
    # Circles with no surviving member disappear; compact class ids.
    used_circles = sorted(set(labels.values()))
    class_of = {c: i for i, c in enumerate(used_circles)}

    edges = []
    for ln, line in enumerate(read("edges").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            a, b = (int(t) for t in line.split())
        except ValueError as exc:
            raise DataError(f"{ego_id}.edges line {ln}: cannot parse") from exc
        if a in index and b in index:
            edges.append((index[a], index[b]))
    if ego_id in index:
        edges.extend((index[ego_id], index[v]) for v in kept if v != ego_id)

    X = np.stack([features[node] for node in kept])
    y = np.array([class_of[labels[node]] for node in kept], dtype=np.int64)
    graph = Graph.from_edge_list(
        len(kept), edges, features=X, labels=y, n_classes=len(used_circles)
    )
    return Dataset(graph, f"{ego_id}Ego", node_ids=tuple(kept))


def _parse_id(token: str, path, line_no: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise DataError(f"{path} line {line_no}: bad node id {token!r}") from exc


def load_generic(edge_file, feature_file, label_file) -> Dataset:
    """Load the simple fixture format.

    Edge file: two whitespace-separated node IDs per line. Feature file:
    CSV rows ``id,v1,v2,...``. Label file: CSV rows ``id,label``. The
    node universe is the union of IDs across all three files; nodes
    missing from the edge file come in isolated, nodes without features
    get zero rows, nodes without labels stay unlabeled. Features are
    used as read. '#' starts a comment in every file.
    """
    def rows(path):
        for ln, line in enumerate(_read_text(path).split("\n"), start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                yield ln, line

    raw_edges = []
    for ln, line in rows(edge_file):
        toks = line.replace(",", " ").split()
        if len(toks) != 2:
            raise DataError(f"{edge_file} line {ln}: expected two node ids")
        raw_edges.append((_parse_id(toks[0], edge_file, ln),
                          _parse_id(toks[1], edge_file, ln)))

    feats = {}
    for ln, line in rows(feature_file):
        toks = [t.strip() for t in line.split(",")]
        node = _parse_id(toks[0], feature_file, ln)
        try:
            feats[node] = np.array([float(t) for t in toks[1:]])
        except ValueError as exc:
            raise DataError(f"{feature_file} line {ln}: bad feature value") from exc

    raw_labels = {}
    for ln, line in rows(label_file):
        toks = [t.strip() for t in line.split(",")]
        if len(toks) != 2:
            raise DataError(f"{label_file} line {ln}: expected 'id,label'")
        raw_labels[_parse_id(toks[0], label_file, ln)] = toks[1]

    ids = sorted(set(feats) | set(raw_labels)
                 | {u for e in raw_edges for u in e})
    index = {node: i for i, node in enumerate(ids)}
    classes = sorted(set(raw_labels.values()))
    class_of = {c: i for i, c in enumerate(classes)}

    dim = len(next(iter(feats.values()))) if feats else 1
    X = np.zeros((len(ids), dim))
    for node, vec in feats.items():
        if vec.size != dim:
            raise DataError(f"{feature_file}: inconsistent feature width for id {node}")
        X[index[node]] = vec
    y = np.full(len(ids), UNLABELED, dtype=np.int64)
    for node, lab in raw_labels.items():
        y[index[node]] = class_of[lab]

    graph = Graph.from_edge_list(
        len(ids),
        [(index[a], index[b]) for a, b in raw_edges],
        features=X,
        labels=y,
        n_classes=len(classes),
    )
    if graph.dropped_duplicates or graph.dropped_self_loops:
        warnings.warn(
            f"{edge_file}: dropped {graph.dropped_duplicates} duplicate and "
            f"{graph.dropped_self_loops} self-loop edge lines"
        )
    name = Path(edge_file).resolve().parent.name or Path(edge_file).stem
    return Dataset(graph, name, class_names=tuple(classes),
                   node_ids=tuple(ids))


def make_splits(dataset: Dataset, spec: SplitSpec, seed: int) -> Splits:
    """Stratified random split, deterministic per seed."""
    labels = dataset.graph.labels
    rng = np.random.default_rng(seed)
    labeled = np.flatnonzero(labels != UNLABELED)
    train = []
    for cls in np.unique(labels[labeled]):
        members = labeled[labels[labeled] == cls]
        want = spec.per_class_train
        if members.size < want + 1:
            if not spec.allow_small_classes:
                raise DataError(
                    f"class {cls} has {members.size} labeled nodes, fewer than "
                    f"per_class_train={spec.per_class_train} (+1 for evaluation)"
                )
            want = max(members.size - 1, 1)
        picked = rng.permutation(members)[:want]
        train.extend(picked.tolist())
    train = np.array(sorted(train), dtype=np.int64)
    rest = np.setdiff1d(labeled, train)
    rest = rng.permutation(rest)
    n_val = int(round(spec.val_fraction * labeled.size))
    n_test = int(round(spec.test_fraction * labeled.size))
    if n_val + n_test > rest.size:
        raise DataError("val/test fractions exceed the remaining labeled nodes")
    return Splits(
        train=train,
        validation=np.sort(rest[:n_val]),
        test=np.sort(rest[n_val : n_val + n_test]),
    )
