"""Dataset loaders and split construction.

Three input formats are supported:

* Planetoid-style citation networks (cora / citeseer / pubmed), read
  from the standard 8-file pickled layout (``ind.<name>.x`` etc.).
* Facebook ego networks, read from ``<id>.edges`` / ``<id>.feat`` /
  ``<id>.egofeat`` / ``<id>.circles`` / ``<id>.featnames``.
* A generic whitespace/CSV format used for fixtures and tests (see
  docs/generic_format.md).

The ego and generic loaders remap external node IDs to contiguous
integers [0, N) and keep the mapping as ``Dataset.node_ids``; Planetoid
node IDs are already rows, so a Planetoid Dataset keeps no mapping.
"""

from __future__ import annotations

import itertools
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

PLANETOID_PARTS = ["x", "y", "tx", "ty", "allx", "ally", "graph", "test.index"]


@dataclass(frozen=True, eq=False)  # identity equality: arrays do not compare to a bool
class Dataset:
    graph: Graph
    name: str
    node_ids: tuple | None = None  # original external IDs, index-aligned

    def __post_init__(self):
        labels = self.graph.labels
        if labels is None or len(set(labels[labels != UNLABELED].tolist())) < 2:
            raise DataError("dataset must contain at least 2 label classes")


@dataclass(frozen=True, eq=False)  # identity equality, as Dataset
class Splits:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            idx = np.asarray(getattr(self, name))
            if idx.size and idx.dtype.kind not in "iu":
                raise DataError(f"{name} split holds non-integer indices ({idx.dtype})")
            object.__setattr__(self, name, idx.astype(np.int64, copy=False))
        tr, va, te = self.train, self.validation, self.test
        if tr.size == 0:
            raise DataError("train split is empty")
        all_idx = np.concatenate([tr, va, te])
        if all_idx.size != np.unique(all_idx).size:
            raise DataError("splits are not pairwise disjoint")
        if all_idx.min() < 0:
            raise DataError("negative split index")


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


def _lines(path, error=DataError):
    """(line number, text) for each line of a UTF-8 text file that keeps
    any text once its '#' comment and surrounding blanks are stripped.
    Every file the user writes is read here: dataset files raise DataError
    on bytes that are not UTF-8, config and grid files pass ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield ln, line


def _parse(cast, tokens, what, path, ln) -> list:
    """cast applied to each token; DataError names the file and line."""
    try:
        return [cast(t) for t in tokens]
    except ValueError as exc:
        raise DataError(f"{path} line {ln}: bad {what}: {exc}") from exc


def _edge_rows(path) -> list:
    """The (a, b) node-id pair on each line: two ids separated by blanks
    or a comma."""
    pairs = []
    for ln, line in _lines(path):
        toks = line.replace(",", " ").split()
        if len(toks) != 2:
            raise DataError(f"{path} line {ln}: expected two node ids")
        pairs.append(tuple(_parse(int, toks, "node id", path, ln)))
    return pairs


def _feature_rows(path, sep=None) -> list:
    """(path, line, id, values) for each line: a node id, then its values."""
    rows = []
    for ln, line in _lines(path):
        toks = line.split(sep)
        (node,) = _parse(int, toks[:1], "node id", path, ln)
        rows.append((path, ln, node, _parse(float, toks[1:], "feature value", path, ln)))
    return rows


def _feature_matrix(rows, index: dict) -> np.ndarray:
    """Row index[id] holds the values of id's last row; an id without a row
    keeps zeros, and rows of ids outside index are only checked. DataError
    names the line of a row whose width differs from the first row's."""
    width = len(rows[0][3]) if rows else 1
    X = np.zeros((len(index), width))
    for path, ln, node, values in rows:
        if len(values) != width:
            raise DataError(f"{path} line {ln}: expected {width} feature values, "
                            f"got {len(values)}")
        if node in index:
            X[index[node]] = values
    return X


def _load_pickle(path: Path):
    with open(path, "rb") as fh:
        try:
            return pickle.load(fh, encoding="latin1")
        except Exception as exc:  # pickle names no closed set of errors for bad bytes
            raise DataError(f"{path} is not a readable pickle: {exc!r}") from exc


def _check_planetoid_parts(paths, graph, n_train, allx, ally, tx, ty, test_idx):
    """DataError naming the file of the first part that disagrees with the
    others, so that no bad part surfaces later as a numpy error."""
    start, n_test, label_shape = allx.shape[0], tx.shape[0], tx.shape[:1] + ally.shape[1:]
    ordered = np.sort(test_idx)
    repeated = np.unique(ordered[1:][np.diff(ordered) == 0]).tolist()
    for part, bad, problem in [
        ("graph", not isinstance(graph, dict),
         f"holds a {type(graph).__name__}, not a dict of adjacency lists"),
        ("y", n_train > start, f"has {n_train} rows, more than the {start} of {paths['allx']}"),
        ("ally", ally.ndim != 2 or len(ally) != start,
         f"has shape {ally.shape} but {paths['allx']} has {start} rows"),
        ("allx", allx.shape[1] != tx.shape[1],
         f"has {allx.shape[1]} columns but {paths['tx']} has {tx.shape[1]}"),
        ("ty", ty.shape != label_shape,
         f"has shape {ty.shape}, not {label_shape} as {paths['tx']} and {paths['ally']} have"),
        ("test.index", test_idx.size == 0, "lists no test index"),
        ("test.index", test_idx.size != n_test,
         f"lists {test_idx.size} test indices for the {n_test} rows of {paths['tx']}"),
        ("test.index", test_idx.min(initial=start) < start,
         f"test index {test_idx.min(initial=start)} is below len(allx) = {start}"),
        ("test.index", repeated, f"lists test indices {repeated} more than once"),
    ]:
        if bad:
            raise DataError(f"{paths[part]}: {problem}")


def _planetoid_edges(path: Path, adjacency: dict, n: int) -> np.ndarray:
    """The pickled adjacency dict as an (m, 2) int64 array of (node,
    neighbor) rows. DataError names ``path`` when a key or an adjacency
    list is not made of node ids, or an id lies outside [0, n)."""
    try:
        degree = np.fromiter(map(len, adjacency.values()), np.int64, len(adjacency))
        edges = np.stack([
            np.repeat(np.fromiter(adjacency, np.int64, len(adjacency)), degree),
            np.fromiter(itertools.chain.from_iterable(adjacency.values()), np.int64,
                        int(degree.sum())),
        ], axis=1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: holds something other than lists of node ids: "
                        f"{exc}") from exc
    outside = edges[(edges < 0) | (edges >= n)]
    if outside.size:
        raise DataError(f"{path}: node id {outside[0]} is outside [0, {n})")
    return edges


def load_planetoid(directory, name: str):
    """Load a citation network plus its canonical public split.

    The split is 20 labeled nodes per class for training (the first
    len(y) rows), the following 500 nodes for validation, and the file's
    test indices for testing. Row j of ``tx`` and ``ty`` belongs to node
    ``test_idx[j]``; the test range runs from len(allx) to the largest
    test index, and a node in it that test.index does not list (one of
    Citeseer's isolated test documents) gets a zero feature row and no
    label. Features are row-normalized, as in Kipf & Welling's GCN, and
    stay a scipy CSR matrix.
    """
    name = name.lower()
    if name not in EXPECTED_EDGES:
        raise DataError(f"unknown citation dataset {name!r}")
    paths = {part: Path(directory) / f"ind.{name}.{part}" for part in PLANETOID_PARTS}
    for path in paths.values():
        if not path.exists():
            raise DataError(f"missing dataset file: {path}")
    index_path = paths["test.index"]
    parts = {part: _load_pickle(path) for part, path in paths.items() if part != "test.index"}
    test_idx = np.array([i for ln, line in _lines(index_path)
                         for i in _parse(int, line.split(), "test index", index_path, ln)],
                        dtype=np.int64)

    allx, tx = sp.csr_matrix(parts["allx"]), sp.csr_matrix(parts["tx"])
    ally, ty = np.asarray(parts["ally"]), np.asarray(parts["ty"])
    n_labeled_train = np.asarray(parts["y"]).shape[0]
    start = allx.shape[0]
    _check_planetoid_parts(paths, parts["graph"], n_labeled_train, allx, ally, tx, ty, test_idx)
    n = int(test_idx.max()) + 1
    place = sp.csr_matrix((np.ones(test_idx.size), (test_idx - start, np.arange(test_idx.size))),
                          shape=(n - start, test_idx.size))
    features = sp.vstack([allx, place @ tx], format="csr")
    features.sort_indices()  # so that each row is summed in column order
    onehot = np.vstack([ally, place @ ty])

    labels = np.full(n, UNLABELED, dtype=np.int64)
    has_label = onehot.sum(axis=1) > 0
    labels[has_label] = onehot[has_label].argmax(axis=1)

    edges = _planetoid_edges(paths["graph"], parts["graph"], n)
    graph = Graph.from_edge_list(n, edges, features=_row_normalize(features),
                                 labels=labels, n_classes=onehot.shape[1])
    expected = EXPECTED_EDGES[name]
    if abs(graph.n_edges - expected) > 0.01 * expected:
        warnings.warn(
            f"{name}: loaded {graph.n_edges} undirected edges, published "
            f"count is {expected} (raw citation lists contain duplicates)"
        )
    # Canonical public split: first len(y) nodes train, next 500 validation.
    # Clipping matters only for reduced fixture datasets.
    test = np.sort(test_idx)
    val_stop = min(n_labeled_train + 500, n)
    validation = np.setdiff1d(np.arange(n_labeled_train, val_stop), test)
    validation = validation[labels[validation] != UNLABELED]
    splits = Splits(train=np.arange(n_labeled_train), validation=validation, test=test)
    return Dataset(graph, name), splits


def _remapped(name, ids, edges, rows, labels: dict) -> Dataset:
    """A Dataset over the external ``ids``, renumbered in sorted order, with
    ``edges`` given as id pairs, feature ``rows`` as ``_feature_matrix``
    takes them, and classes (``labels``: id -> class) numbered in sorted
    order; an id without a class stays unlabeled."""
    ids = sorted(ids)
    index = {node: i for i, node in enumerate(ids)}
    class_of = {c: i for i, c in enumerate(sorted(set(labels.values())))}
    y = np.full(len(ids), UNLABELED, dtype=np.int64)
    for node, label in labels.items():
        y[index[node]] = class_of[label]
    graph = Graph.from_edge_list(len(ids), [(index[a], index[b]) for a, b in edges],
                                 features=_feature_matrix(rows, index), labels=y,
                                 n_classes=len(class_of))
    return Dataset(graph, name, node_ids=tuple(ids))


def load_ego_facebook(directory, ego_id: int) -> Dataset:
    """Load one Facebook ego network with circle-derived labels.

    Nodes without features or without any circle membership are removed
    and the rest reindexed. Multi-circle nodes take their lowest-index
    circle as label. The ego node, which belongs to no circle, is
    therefore dropped unless a circle happens to list it; if one does,
    it keeps its ``egofeat`` row (every value in that file) and an edge
    to every other kept node. Features are used as read. '#' starts a
    comment in every file.
    """
    directory = Path(directory)

    def path(suffix):
        p = directory / f"{ego_id}.{suffix}"
        if not p.exists():
            raise DataError(f"missing ego-network file: {p}")
        return p

    rows = _feature_rows(path("feat"))
    ego_path = path("egofeat")
    ego_lines = list(_lines(ego_path))
    if ego_lines:
        values = [v for ln, line in ego_lines
                  for v in _parse(float, line.split(), "feature value", ego_path, ln)]
        rows.append((ego_path, ego_lines[0][0], ego_id, values))

    circles_path = path("circles")
    first_circle = {}
    for circle, (ln, line) in enumerate(_lines(circles_path)):
        for node in _parse(int, line.split()[1:], "node id", circles_path, ln):
            first_circle.setdefault(node, circle)
    labels = {node: first_circle[node] for _, _, node, _ in rows if node in first_circle}
    if not labels:
        raise DataError(f"ego network {ego_id}: no labeled nodes after filtering")
    edges = [(a, b) for a, b in _edge_rows(path("edges")) if a in labels and b in labels]
    if ego_id in labels:
        edges.extend((ego_id, v) for v in labels if v != ego_id)
    # A circle with no kept member gets no class id.
    return _remapped(f"{ego_id}Ego", labels, edges, rows, labels)


def load_generic(edge_file, feature_file, label_file) -> Dataset:
    """Load the simple fixture format.

    Edge file: two whitespace-separated node IDs per line. Feature file:
    CSV rows ``id,v1,v2,...``. Label file: CSV rows ``id,label``. The
    node universe is the union of IDs across all three files; nodes
    missing from the edge file come in isolated, nodes without features
    get zero rows, nodes without labels stay unlabeled. Features are
    used as read. '#' starts a comment in every file.
    """
    raw_edges = _edge_rows(edge_file)
    rows = _feature_rows(feature_file, ",")
    raw_labels = {}
    for ln, line in _lines(label_file):
        toks = [t.strip() for t in line.split(",")]
        if len(toks) != 2:
            raise DataError(f"{label_file} line {ln}: expected 'id,label'")
        (node,) = _parse(int, toks[:1], "node id", label_file, ln)
        raw_labels[node] = toks[1]

    ids = {node for _, _, node, _ in rows} | set(raw_labels) | {u for e in raw_edges for u in e}
    name = Path(edge_file).resolve().parent.name or Path(edge_file).stem
    dataset = _remapped(name, ids, raw_edges, rows, raw_labels)
    graph = dataset.graph
    if graph.dropped_duplicates or graph.dropped_self_loops:
        warnings.warn(f"{edge_file}: dropped {graph.dropped_duplicates} duplicate and "
                      f"{graph.dropped_self_loops} self-loop edge lines")
    return dataset


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
