"""Mutation checks: each row of ``MUTANTS`` breaks the package in one
known way, and the tier-1 tests the row names must then fail.

    python3 tests/mutants.py

For each row the script copies ``src/`` to a temporary directory,
replaces the row's source text there (it must occur exactly once), checks
that ``motifgcn`` imports from the copy, and runs only the row's tests
on it with pytest from the repository root. A mutant is killed when
every test it names fails (a parametrized test named without its case
fails when any of its cases does), and survives otherwise. The script
prints one line per row and exits 1 when any mutant survives or cannot
be run, 0 when every one is killed.

It is not part of tier-1; ``tests/test_mutants.py`` is, and checks that
each row's source text still occurs exactly once and that each test it
names still exists, so the table follows the code. A mutant that
survives is a finding: mend the tests, and keep the row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/motifgcn/
    source: str  # exact text, found exactly once in ``file``
    replacement: str
    breaks: str
    tests: tuple  # pytest ids, from the repository root, that must fail


MUTANTS = (
    Mutant("dropout-mask-dropped", "model.py",
           "            d_hin = d_hin * mask\n", "            pass\n",
           "backward skips the dropout mask of a dense hidden layer",
           ("tests/test_model.py::test_gradient_check_covers_dropout_masks",
            "tests/test_model.py::test_gradient_check_with_sparse_features",
            "tests/test_model.py::test_gradient_check_through_restricted_operators",
            "tests/test_acceptance.py::test_c7_gradient_verification",
            "tests/test_cli.py::test_gradcheck_passes")),
    Mutant("walk-without-wedge-hop", "motifs.py",
           "_columns_of(self.A_out[rows]) if self.c else rows[:0]", "rows[:0]",
           "the walk finds no wedge neighbours N1, so the restricted operators "
           "lose the A_out·A_in term",
           ("tests/test_model.py::test_walk_reads_no_extra_rows",
            "tests/test_model.py::test_train_equals_full_path",
            "tests/test_model.py::test_train_equals_full_path_with_sparse_features",
            "tests/test_model.py::test_gradient_check_through_restricted_operators",
            "tests/test_properties.py::test_restricted_passes_equal_full_path")),
    Mutant("first-hop-on-wrong-rows", "model.py",
           "(np.ones(R.size), (R, np.arange(R.size)))",
           "(np.ones(R.size), (R[::-1], np.arange(R.size)))",
           "E_R places the validation first hop on the wrong rows",
           ("tests/test_model.py::test_first_hop_pass_equals_full_path",
            "tests/test_model.py::test_walk_reads_no_extra_rows",
            "tests/test_canary.py::test_c9_proxy_gain_rises_with_closure")),
    Mutant("recipe-weights-ignored", "motifs.py",
           "kept.append((part, weight, s))", "kept.append((part, 1.0, s))",
           "every part of the mix is weighed alike",
           ("tests/test_motifs.py::test_mix_weight_normalization",
            "tests/test_properties.py::test_mixed_operator_equals_materialized_mix",
            "tests/test_canary.py::test_c9_proxy_gain_rises_with_closure")),
    Mutant("triangle-part-left-out", "motifs.py",
           "        if weight == 0:\n",
           "        if weight == 0 or source is MatrixSource.TRIANGLE:\n",
           "the triangle part never enters the mix",
           ("tests/test_motifs.py::test_mix_weight_normalization",
            "tests/test_motifs.py::test_mix_drops_all_zero_component",
            "tests/test_canary.py::test_c5_proxy_motif_mix_beats_gcn_at_full_closure")),
    Mutant("triangle-normalization-off", "motifs.py",
           "return normalize_symmetric(triangle_motif_matrix(A), add_self_loops=False), None",
           "return triangle_motif_matrix(A), None",
           "the triangle part enters the mix unnormalized",
           ("tests/test_motifs.py::test_mix_weight_normalization",
            "tests/test_properties.py::test_mixed_operator_equals_materialized_mix",
            "tests/test_properties.py::test_mix_symmetric_with_spectral_norm_at_most_one")),
    Mutant("edge-part-without-self-loops", "motifs.py",
           "return normalize_symmetric(A, add_self_loops=True), None",
           "return normalize_symmetric(A, add_self_loops=False), None",
           "the edge part loses GCN's +I",
           ("tests/test_motifs.py::test_mix_single_edge_component_is_gcn_matrix",
            "tests/test_model.py::test_forward_equals_two_layer_gcn_formula",
            "tests/test_properties.py::test_mix_symmetric_with_spectral_norm_at_most_one")),
    Mutant("sparse-dropout-drops-everything", "nn.py",
           "data = H.data * (_kept(key, at, rate) * scale)",
           "data = H.data * 0.0",
           "sparse dropout drops every stored value",
           ("tests/test_nn.py::test_sparse_dropout_keeps_the_keyed_draws",
            "tests/test_nn.py::test_keyed_keep_fraction",
            "tests/test_model.py::test_gradient_check_covers_dropout_masks[sparse]",
            "tests/test_canary.py::test_c5_proxy_motif_mix_beats_gcn_at_full_closure[csr]")),
    Mutant("train-skips-evaluate", "model.py",
           "test_acc = evaluate(model, graph.features, y, test_idx)",
           "test_acc = _accuracy(forward(model, graph.features), y, test_idx)",
           "train computes test accuracy without calling evaluate, which the "
           "benchmark tracer wraps",
           ("tests/test_bench_names.py::test_traced_benchmark_sequence_calls_every_wrapped_function",)),
    Mutant("plans-left-writable", "model.py",
           "        _read_only(self.inputs, self.outputs, self.stored, self.X)\n",
           "        pass\n",
           "plans shared across threads are writable",
           ("tests/test_model.py::test_shared_plans_are_read_only",)),
    Mutant("seeds-spaced-by-two", "model.py",
           "seed=config.seed + i)", "seed=config.seed + 2 * i)",
           "a protocol trains seeds seed, seed + 2, ...",
           ("tests/test_bench_names.py::test_protocol_trains_each_seed_through_the_module",
            "tests/test_model.py::test_shared_plans_equal_separate_trains")),
    Mutant("float-splits-truncated", "data.py",
           'if idx.size and idx.dtype.kind not in "iu":', "if False:",
           "Splits truncates float indices and reads a boolean mask as indices",
           ("tests/test_data.py::test_splits_refuse_non_integer_indices",)),
    Mutant("self-loops-kept", "graph.py",
           "_canonical_adjacency(n_nodes, raw[~loop])", "_canonical_adjacency(n_nodes, raw)",
           "from_edge_list puts its dropped self-loops on A's diagonal",
           ("tests/test_graph.py::test_from_edge_list_builds_the_adjacency_of_its_pairs",
            "tests/test_graph.py::test_constructors_match_set_reference")),
)


def run(mutant: Mutant) -> str | None:
    """None when the mutant is killed, else why it is not."""
    if not mutant.tests:
        return "the row names no test"  # pytest would run the whole suite
    with tempfile.TemporaryDirectory(prefix="motifgcn-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "motifgcn" / mutant.file
        text = path.read_text()
        if text.count(mutant.source) != 1:
            return f"source text occurs {text.count(mutant.source)} times in {mutant.file}"
        path.write_text(text.replace(mutant.source, mutant.replacement))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                            os.environ.get("PYTHONPATH")])))
        # An installed motifgcn could shadow the copy.
        where = subprocess.run([sys.executable, "-c", "import motifgcn; print(motifgcn.__file__)"],
                               cwd=ROOT, env=env, capture_output=True, text=True)
        if not where.stdout.strip().startswith(str(src)):
            return f"motifgcn imports from {where.stdout.strip() or where.stderr}, not the copy"
        result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 "--tb=no", "-rf", *mutant.tests],
                                cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):
        return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    failed = [line[len("FAILED "):].split(" - ")[0] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")]
    passed = [test for test in mutant.tests
              if not any(f == test or f.startswith(test + "[") for f in failed)]
    return f"these tests pass: {', '.join(passed)}" if passed else None


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        why = run(mutant)
        survivors += why is not None
        print(f"{'killed' if why is None else 'SURVIVED'}  {mutant.name}: {mutant.breaks}"
              + ("" if why is None else f"\n    {why}"), flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
