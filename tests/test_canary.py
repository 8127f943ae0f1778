"""Offline accuracy canary: proxies for criteria C5 and C9.

The accuracy criteria in test_acceptance.py need the real datasets and
skip without them, so a change that breaks normalization, mixing, recipe
weighting or dropout while the kernels and gradients stay right would
pass unnoticed. These proxies run the paper's two claims on planted
graphs (``synthetic.planted_closure_dataset``: 900 nodes, 3 classes, 20
training nodes per class), whose within-class edges close into
triangles with probability ``closure``:

* C5: the motif mix ``edge:1,triangle:4`` beats GCN (``edge:1``) at
  closure 1;
* C9: the gain rises with closure (and with the clustering coefficient:
  about 0.013, 0.067 and 0.082 at closure 0, 0.5 and 1);
* key motifs: different networks have different key motifs, so a grid
  search by validation accuracy picks ``edge:1`` at closure 0 and the
  motif mix at closure 1.

Each runs with dense features and with the same features stored as CSR,
which training drops out through the keyed sparse path. The margins
below come from the measured spread.
"""

import functools

import pytest
import scipy.sparse as sp

from motifgcn.data import Dataset, SplitSpec, make_splits
from motifgcn.graph import Graph
from motifgcn.model import ModelConfig, grid_search, run_protocol
from motifgcn.motifs import MixRecipe, clustering_coefficient
from motifgcn.synthetic import planted_closure_dataset

GCN = MixRecipe.parse("edge:1")
MOTIF_MIX = MixRecipe.parse("edge:1,triangle:4")
RUNS = 3
# Margins from the spread over four sets of 3 run seeds (0-2, 3-5, 6-8,
# 9-11) and both feature forms, on this graph (seed 0):
# - the gain at closure 1 measured +0.090 to +0.114;
C5_MARGIN = 0.05
# - each step of closure (0 -> 0.5 -> 1) raised it by +0.052 or more,
#   and the two steps together by +0.203 to +0.238. With the recipe
#   weights ignored (the mix weighs triangle as edge), they rise by
#   +0.109 and +0.128 alone.
C9_STEP = 0.02
C9_RISE = 0.16


@functools.cache
def gain(closure: float, form: str) -> float:
    """Mean test accuracy of the motif mix minus that of GCN (h1=2, h2=0,
    seeds 0 to RUNS-1) on the closure's graph, features dense or CSR."""
    dataset = planted_closure_dataset(closure, seed=0)
    if form == "csr":
        g = dataset.graph
        dataset = Dataset(Graph(g.n_nodes, g.edges, features=sp.csr_matrix(g.features),
                                labels=g.labels, n_classes=g.n_classes), dataset.name)
    splits = make_splits(dataset, SplitSpec(per_class_train=20), seed=0)
    motif, gcn = (run_protocol(ModelConfig(h1=2, h2=0, recipe=recipe), dataset, splits,
                               RUNS)["mean"] for recipe in (MOTIF_MIX, GCN))
    return motif - gcn


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_c5_proxy_motif_mix_beats_gcn_at_full_closure(form):
    assert gain(1.0, form) > C5_MARGIN


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_c9_proxy_gain_rises_with_closure(form):
    low, mid, high = (gain(c, form) for c in (0.0, 0.5, 1.0))
    assert mid - low > C9_STEP
    assert high - mid > C9_STEP
    assert high - low > C9_RISE


@pytest.mark.parametrize("closure, key", [(0.0, GCN), (1.0, MOTIF_MIX)])
def test_grid_search_picks_the_key_motif(closure, key):
    # On planted seeds 0-3 each search chose this way, by a mean
    # validation accuracy margin of +0.08 to +0.20.
    dataset = planted_closure_dataset(closure, seed=0)
    splits = make_splits(dataset, SplitSpec(per_class_train=20), seed=0)
    best, _ = grid_search(dataset, splits, [GCN, MOTIF_MIX], ModelConfig(h1=2, h2=0),
                          n_seeds=RUNS)
    assert best == key


def test_planted_closure_graph_clusters_with_closure():
    graphs = [planted_closure_dataset(c).graph for c in (0.0, 0.5, 1.0)]
    assert all(g.n_nodes == 900 and g.n_classes == 3 for g in graphs)
    low, mid, high = (clustering_coefficient(g) for g in graphs)
    assert low < 0.02 and 0.05 < mid < 0.075 < high
