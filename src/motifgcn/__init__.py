"""motifgcn: motif-weighted graph convolution for node classification."""

from .graph import Graph, build_adjacency, degree, max_degree
from .motifs import (
    MixRecipe,
    clustering_coefficient,
    mix_matrices,
    motif_matrix_oracle,
    normalize_symmetric,
    triangle_motif_matrix,
    wedge_motif_matrix,
)
from .model import ModelConfig, build_model, evaluate, forward, grid_search, run_protocol, train
from .data import Dataset, Splits, SplitSpec, load_ego_facebook, load_generic, load_planetoid, make_splits

__version__ = "0.1.0"
