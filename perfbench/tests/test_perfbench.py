"""Tests of the benchmark itself: input generation, span arithmetic and
the output checks. Run with ``python3 -m pytest perfbench/tests -q``."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from motifgcn import data, graph, motifs  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_planetoid_generator_is_deterministic_and_exact(tmp_path):
    infos = [generate.write_planetoid(tmp_path / d, "citeseer", generate.CITESEER, 7)
             for d in ("a", "b")]
    assert infos[0] == infos[1]
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name
    other = generate.write_planetoid(tmp_path / "c", "citeseer", generate.CITESEER, 8)
    assert (tmp_path / "c" / "ind.citeseer.graph").read_bytes() != \
           (tmp_path / "a" / "ind.citeseer.graph").read_bytes()

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no edge-count warning
        dataset, splits = data.load_planetoid(tmp_path / "a", "citeseer")
    g = dataset.graph
    shape = generate.CITESEER
    assert (g.n_nodes, g.n_edges, g.feature_dim, g.n_classes) == \
           (shape.nodes, shape.edges, shape.features, shape.classes)
    assert infos[0]["edges"] == data.EXPECTED_EDGES["citeseer"]
    assert infos[0]["d_max"] == graph.max_degree(g)
    assert abs(infos[0]["feature_density"] - shape.density) < 0.1 * shape.density
    assert splits.train.size == 20 * shape.classes


def test_powerlaw_generator_is_deterministic():
    small = generate.Shape(2000, 8000, 8, 4, 1.0, 0.8, 4.0, 0.0)
    a = generate.powerlaw_graph(3, small)
    b = generate.powerlaw_graph(3, small)
    for x, y in zip(a[:3], b[:3]):
        np.testing.assert_array_equal(x, y)
    assert a[3] == b[3]
    edges = a[0]
    assert edges.shape == (8000, 2)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert np.unique(edges, axis=0).shape[0] == 8000


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "a.child", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 6.0, 0, 1),
        # Children on two other threads overlap; only their union counts.
        Span(4, "pool", 20.0, 30.0, None, 1),
        Span(5, "w1", 21.0, 27.0, 4, 2),
        Span(6, "w2", 24.0, 29.0, 4, 3),
        Span(7, "spill", 28.0, 31.0, 4, 2),   # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0,
                                 4: 1.0, 5: 6.0, 6: 5.0, 7: 3.0})


def test_tracer_wraps_aliases_counts_and_restores():
    ticks = iter(range(100))
    original = motifs.mix_matrices
    import motifgcn.model as model_module

    with Tracer(clock=lambda: float(next(ticks))) as tracer:
        tracer.wrap(motifs, "mix_matrices", "motifs.mix",
                    count=lambda args, result: {"nnz": result.nnz})
        tracer.wrap(motifs, "no_such_function", "motifs.gone")
        assert model_module.mix_matrices is motifs.mix_matrices is not original
        g = graph.Graph(3, [(0, 1), (1, 2), (0, 2)])
        with tracer.span("outer"):
            mixed = model_module.mix_matrices(motifs.MixRecipe.parse("edge:1"), g)
    assert motifs.mix_matrices is original and model_module.mix_matrices is original
    assert tracer.missing == ["motifgcn.motifs.no_such_function"]
    assert tracer.calls == {"motifgcn.motifs.mix_matrices": 1}
    summary = tracer.summary()
    assert summary["motifs.mix"]["calls"] == 1
    assert summary["motifs.mix"]["nnz"] == mixed.nnz
    assert summary["outer"]["self_s"] == pytest.approx(2.0)   # 3 ticks minus 1


def test_checks_pass_on_program_output():
    g = graph.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    mixed = motifs.mix_matrices(motifs.MixRecipe.parse("edge:8,triangle:1,wedge:2"), g)
    assert workloads.check_mixed(mixed) is None
    assert workloads.check_wedge_bound(workloads.motif_stats(g)) is None
    run_ok = {"seed": 1, "losses_finite": 1, "test_accuracy": 0.9}
    assert workloads.check_run(run_ok) is None


def test_checks_fail_on_corrupted_output():
    M = sp.csr_matrix(np.array([[0.5, 0.2], [0.2, 0.5]]))
    assert workloads.check_mixed(M) is None
    asym = M.tolil()
    asym[0, 1] = 0.3
    assert "not symmetric" in workloads.check_mixed(asym.tocsr())
    bad = M.copy()
    bad.data[0] = np.nan
    assert "non-finite" in workloads.check_mixed(bad)
    assert workloads.check_wedge_bound({"edges": 2, "d_max": 1, "nnz_wedge": 5})
    assert workloads.check_run({"seed": 1, "losses_finite": 0, "test_accuracy": 0.9})
    assert workloads.check_run({"seed": 1, "losses_finite": 1, "test_accuracy": 0.2})


def test_counter_and_workload_names():
    counter = run.Counter()
    counter.record("a", None)
    counter.record("a", "broken")
    assert (counter.attempted, counter.failed) == (2, 1)
    assert counter.by_check == {"a": [1, 1]}
    assert set(run.NAMES) == set(workloads.WORKLOADS)


def test_benchmark_json_matches_the_harness():
    import json

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
           {name: row[:2] for name, row in run.PER_LAYER.items()}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
