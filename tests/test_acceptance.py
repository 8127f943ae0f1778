"""Acceptance criteria, one test per criterion.

Criteria that need the real citation / ego-network datasets skip with an
explanatory message when the data directory (MOTIFGCN_DATA) is absent;
everything else runs self-contained. Each test prints one
``ACCEPTANCE <n>: PASS/FAIL`` line (visible with ``pytest -s`` or on
failure).

Run the full gate with real data:

    MOTIFGCN_DATA=/path/to/datasets pytest tests/test_acceptance.py -s
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from motifgcn.cli import main
from motifgcn.data import load_ego_facebook, load_planetoid, make_splits, SplitSpec
from motifgcn.graph import build_adjacency, max_degree
from motifgcn.model import ModelConfig, run_protocol
from motifgcn.motifs import (
    MixRecipe,
    clustering_coefficient,
    motif_matrix_oracle,
    triangle_motif_matrix,
    wedge_motif_matrix,
)
from motifgcn.synthetic import two_community_dataset
from motifgcn.verify import GRADCHECK_SHAPES, gradient_check, random_graph

REPO = Path(__file__).resolve().parent.parent
DATA_ROOT = os.environ.get("MOTIFGCN_DATA", "")
SKIP_MSG = ("dataset files not present; set MOTIFGCN_DATA to a directory "
            "holding the citation/ego datasets to run this criterion")

CITATION = {
    # name -> (mix recipe, h1, h2, expected CC, CC tol)
    "cora": ("edge:8,triangle:1,wedge:3", 2, 1, 0.09350, 5e-5),
    "citeseer": ("edge:8,triangle:1,wedge:2", 1, 0, 0.14297, 5e-5),
    "pubmed": ("edge:9,wedge:1", 1, 0, 0.05380, 5e-5),
}
GCN_BANDS = {"cora": (0.815, 0.010), "citeseer": (0.703, 0.010),
             "pubmed": (0.790, 0.008)}
MOTIF_BANDS = {"cora": (0.823, 0.010), "citeseer": (0.718, 0.012),
               "pubmed": (0.795, 0.008)}

EGO = {
    # ego id -> (mix recipe, motif-mix mean/100 from the reported results)
    107: ("edge:9,wedge:1", 0.801),
    414: ("edge:4,triangle:1", 0.724),
    1684: ("edge:1,wedge:1", 0.663),
    1912: ("edge:4,wedge:1", 0.629),
}
EGO_CC = {107: 0.54431, 414: 0.67137, 1684: 0.45752, 1912: 0.71837}

N_SEEDS_CITATION = 20


def planetoid_present(name):
    if not DATA_ROOT:
        return False
    parts = [f"ind.{name}.{p}" for p in
             ("x", "y", "tx", "ty", "allx", "ally", "graph", "test.index")]
    return all((Path(DATA_ROOT) / f).exists() for f in parts)


def ego_present(ego_id):
    if not DATA_ROOT:
        return False
    return all((Path(DATA_ROOT) / f"{ego_id}.{s}").exists()
               for s in ("edges", "feat", "egofeat", "circles"))


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# Session caches so criteria 4/5/9 share the expensive training runs.
_cache = {}


def citation_data(name):
    key = ("data", name)
    if key not in _cache:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _cache[key] = load_planetoid(DATA_ROOT, name)
    return _cache[key]


def citation_means(name):
    """Paired GCN / motif-mix mean test accuracy over the seed protocol."""
    key = ("means", name)
    if key not in _cache:
        dataset, splits = citation_data(name)
        recipe, h1, h2, _, _ = CITATION[name]
        gcn_cfg = ModelConfig(h1=2, h2=0, recipe=MixRecipe.parse("edge:1"), seed=0)
        mg_cfg = ModelConfig(h1=h1, h2=h2, recipe=MixRecipe.parse(recipe), seed=0)
        gcn = run_protocol(gcn_cfg, dataset, splits, N_SEEDS_CITATION, threads=4)
        mg = run_protocol(mg_cfg, dataset, splits, N_SEEDS_CITATION, threads=4)
        _cache[key] = (gcn["mean"], mg["mean"])
    return _cache[key]


# ---------------------------------------------------------------- criterion 1

def test_c1_kernels_equal_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(5, 26)), float(rng.uniform(0.1, 0.5)))
        A = build_adjacency(g)
        tri_ok = np.array_equal(triangle_motif_matrix(A).toarray(),
                                motif_matrix_oracle(g, "triangle"))
        wedge_ok = np.array_equal(wedge_motif_matrix(A).toarray(),
                                  motif_matrix_oracle(g, "wedge"))
        if not (tri_ok and wedge_ok):
            report(1, False, f"mismatch on graph n={g.n_nodes}")
            assert tri_ok and wedge_ok
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    report(1, ok, f"50 graphs, exact match, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------- criterion 2

def loaded_graphs():
    yield "fixture", two_community_dataset(24, seed=0).graph
    for name in CITATION:
        if planetoid_present(name):
            yield name, citation_data(name)[0].graph
    for ego_id in EGO:
        if ego_present(ego_id):
            yield f"{ego_id}Ego", load_ego_facebook(DATA_ROOT, ego_id).graph


def test_c2_sparsity_theorems():
    checked = []
    for name, g in loaded_graphs():
        A = build_adjacency(g)
        tri = triangle_motif_matrix(A)
        # (a) triangle support within adjacency support (off-diagonal)
        off = tri.copy()
        off.setdiag(0)
        off.eliminate_zeros()
        outside = off - off.multiply(A > 0)
        assert outside.nnz == 0, f"{name}: triangle entry outside adjacency support"
        # (b) wedge nnz bound
        wedge = wedge_motif_matrix(A)
        bound = 2 * g.n_edges * max_degree(g)
        assert wedge.nnz <= bound, f"{name}: wedge nnz {wedge.nnz} > {bound}"
        checked.append(name)
    report(2, True, f"support + nnz bounds on: {', '.join(checked)}")


# ---------------------------------------------------------------- criterion 3

@pytest.mark.parametrize("name", list(CITATION))
def test_c3_clustering_coefficient_citation(name):
    if not planetoid_present(name):
        pytest.skip(SKIP_MSG)
    _, _, _, expected, tol = CITATION[name]
    cc = clustering_coefficient(citation_data(name)[0].graph)
    ok = abs(cc - expected) <= tol
    report(3, ok, f"{name}: CC={cc:.5f} expected {expected}+-{tol}")
    assert ok


@pytest.mark.parametrize("ego_id", list(EGO))
def test_c3_clustering_coefficient_ego(ego_id):
    if not ego_present(ego_id):
        pytest.skip(SKIP_MSG)
    cc = clustering_coefficient(load_ego_facebook(DATA_ROOT, ego_id).graph)
    expected = EGO_CC[ego_id]
    ok = abs(cc - expected) <= 5e-4
    report(3, ok, f"{ego_id}Ego: CC={cc:.5f} expected {expected}+-5e-4")
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_c4_gcn_baseline_citation():
    missing = [n for n in CITATION if not planetoid_present(n)]
    if missing:
        pytest.skip(SKIP_MSG)
    t0 = time.perf_counter()
    results = {name: citation_means(name)[0] for name in CITATION}
    elapsed = time.perf_counter() - t0
    ok = all(abs(results[n] - GCN_BANDS[n][0]) <= GCN_BANDS[n][1] for n in CITATION)
    ok = ok and elapsed < 900
    report(4, ok, " ".join(f"{n}={results[n]:.3f}" for n in CITATION)
           + f" ({elapsed:.0f}s)")
    for n in CITATION:
        mean, tol = GCN_BANDS[n]
        assert abs(results[n] - mean) <= tol, f"{n}: GCN mean {results[n]:.4f}"
    assert elapsed < 900


# ---------------------------------------------------------------- criterion 5

def test_c5_motif_mix_citation():
    missing = [n for n in CITATION if not planetoid_present(n)]
    if missing:
        pytest.skip(SKIP_MSG)
    details = []
    ok = True
    for name in CITATION:
        gcn_mean, mg_mean = citation_means(name)
        band, tol = MOTIF_BANDS[name]
        ok = ok and abs(mg_mean - band) <= tol and mg_mean >= gcn_mean
        details.append(f"{name}: motif-mix={mg_mean:.3f} GCN={gcn_mean:.3f}")
    report(5, ok, "; ".join(details))
    for name in CITATION:
        gcn_mean, mg_mean = citation_means(name)
        band, tol = MOTIF_BANDS[name]
        assert abs(mg_mean - band) <= tol, f"{name}: motif-mix mean {mg_mean:.4f}"
        assert mg_mean >= gcn_mean, f"{name}: motif-mix below paired GCN"


# ---------------------------------------------------------------- criterion 6

@pytest.mark.parametrize("ego_id", list(EGO))
def test_c6_ego_networks(ego_id):
    if not ego_present(ego_id):
        pytest.skip(SKIP_MSG)
    recipe, reported_mean = EGO[ego_id]
    dataset = load_ego_facebook(DATA_ROOT, ego_id)
    splits = make_splits(
        dataset,
        SplitSpec(per_class_train=5, val_fraction=0.15, test_fraction=0.30,
                  allow_small_classes=True),
        seed=0,
    )
    mg_cfg = ModelConfig(h1=2, h2=1, recipe=MixRecipe.parse(recipe), seed=0)
    gcn_cfg = ModelConfig(h1=2, h2=0, recipe=MixRecipe.parse("edge:1"), seed=0)
    mg = run_protocol(mg_cfg, dataset, splits, 100, threads=4)
    gcn = run_protocol(gcn_cfg, dataset, splits, 100, threads=4)
    improved = mg["mean"] > gcn["mean"]
    in_band = abs(mg["mean"] - reported_mean) <= 0.05
    detail = (f"{ego_id}Ego: motif-mix={mg['mean']:.3f} GCN={gcn['mean']:.3f} "
              f"reported={reported_mean}")
    if not in_band:
        detail += " [outside +-5pt band; gated on relative improvement]"
    report(6, improved, detail)
    assert improved, f"{ego_id}Ego: motif-mix mean does not beat paired GCN"


# ---------------------------------------------------------------- criterion 7

def test_c7_gradient_verification():
    t0 = time.perf_counter()
    worst = max(gradient_check(h1, h2) for h1, h2 in GRADCHECK_SHAPES)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10
    report(7, ok, f"max rel err {worst:.2e} over {len(GRADCHECK_SHAPES)} shapes, "
           f"{elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 10


# ---------------------------------------------------------------- criterion 8

def test_c8_train_report_determinism(tmp_path):
    conf = str(REPO / "configs" / "fixture.conf")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["train", "--config", conf, "--seed", "7", "--out", str(a)]) == 0
    assert main(["train", "--config", conf, "--seed", "7", "--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    report(8, ok, "byte-identical JSON reports")
    assert ok
    json.loads(a.read_text())  # well-formed


# ---------------------------------------------------------------- criterion 9

def test_c9_improvement_tracks_clustering_coefficient():
    missing = [n for n in CITATION if not planetoid_present(n)]
    if missing:
        pytest.skip(SKIP_MSG)
    gains = {}
    for name in CITATION:
        gcn_mean, mg_mean = citation_means(name)
        gains[name] = mg_mean - gcn_mean
    # CC ordering: citeseer > cora > pubmed
    ok = gains["citeseer"] > gains["cora"] > gains["pubmed"]
    report(9, ok, " ".join(f"{n}:+{gains[n]:.4f}" for n in CITATION))
    assert ok


# ------------------------------------------------- Cora-specific spec probes

def test_cora_edge_count_and_wedge_spectral_norm():
    """Adjacency nnz and the spectral norm of the normalized wedge matrix
    on Cora. Its row sums are no bound: a 5-leaf star's hub row sums to
    1.387, yet D^{-1/2} W D^{-1/2} of a nonnegative W has norm <= 1."""
    if not planetoid_present("cora"):
        pytest.skip(SKIP_MSG)
    from scipy.sparse.linalg import eigsh
    from motifgcn.motifs import normalize_symmetric

    g = citation_data("cora")[0].graph
    A = build_adjacency(g)
    assert A.nnz == 2 * g.n_edges
    W = normalize_symmetric(wedge_motif_matrix(A), add_self_loops=False)
    largest = eigsh(W, k=1, which="LM", return_eigenvectors=False)
    assert np.abs(largest).max() <= 1 + 1e-9
