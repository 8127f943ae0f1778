"""Command-line interface.

Subcommands: motif-stats, train, protocol, grid-search, gradcheck,
oracle-check. All results are emitted as JSON (stdout or --out); timing
and progress go to stderr so reports stay byte-stable across reruns.

Exit codes: 0 success, 1 computational failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import data as data_io
from .config import ConfigError, RunConfig
from .graph import build_adjacency, max_degree
from .motifs import (
    MixRecipe,
    MotifError,
    clustering_coefficient,
    triangle_count,
    triangle_motif_matrix,
    wedge_count,
    wedge_motif_matrix,
)
from .model import grid_search, run_protocol, train
from .modelfile import save_model
from .verify import GRADCHECK_SHAPES, gradient_check, oracle_check

GRADCHECK_TOLERANCE = 1e-6


def _emit(payload: dict, out_path: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_dataset(cfg: RunConfig):
    """Returns (Dataset, Splits). Split construction is seeded by cfg.seed
    and stays fixed across the runs of a protocol."""
    kind = cfg.dataset_kind()
    if not kind:
        raise ConfigError("no dataset configured (set 'dataset' or --dataset)")
    if kind == "planetoid":
        return data_io.load_planetoid(cfg.resolved_data_root(), cfg.dataset_arg())
    if kind == "ego":
        dataset = data_io.load_ego_facebook(cfg.resolved_data_root(),
                                            int(cfg.dataset_arg()))
    else:
        for key in ("edges_file", "features_file", "labels_file"):
            if not getattr(cfg, key):
                raise ConfigError(f"generic dataset needs {key}")
        dataset = data_io.load_generic(
            cfg.resolve_path(cfg.edges_file),
            cfg.resolve_path(cfg.features_file),
            cfg.resolve_path(cfg.labels_file),
        )
    return dataset, data_io.make_splits(dataset, cfg.split_spec(), cfg.seed)


def cmd_motif_stats(cfg: RunConfig, args) -> int:
    dataset, _ = _load_dataset(cfg)
    g = dataset.graph
    A = build_adjacency(g)
    tri = triangle_motif_matrix(A)
    wedge = wedge_motif_matrix(A)
    d_max = max_degree(g)
    bound = 2 * g.n_edges * d_max
    payload = {
        "dataset": dataset.name,
        "nodes": g.n_nodes,
        "edges": g.n_edges,
        "max_degree": d_max,
        "triangles": triangle_count(g),
        "wedges": wedge_count(g),
        "clustering_coefficient": clustering_coefficient(g),
        "nnz": {"edge": A.nnz, "triangle": tri.nnz, "wedge": wedge.nnz},
        "bound_2ED": bound,
        "wedge_nnz_within_bound": wedge.nnz <= bound,
    }
    _emit(payload, cfg.out)
    return 0


def _report_payload(report) -> dict:
    # wall_clock_seconds is intentionally excluded: reports must be
    # byte-identical across reruns with the same seed.
    return {
        "train_losses": report.train_losses,
        "val_losses": report.val_losses,
        "val_accuracies": report.val_accuracies,
        "best_epoch": report.best_epoch,
        "epochs_run": report.epochs_run,
        "test_accuracy": report.test_accuracy,
    }


def cmd_train(cfg: RunConfig, args) -> int:
    dataset, splits = _load_dataset(cfg)
    t0 = time.perf_counter()
    model, report = train(cfg.model_config(), dataset, splits)
    print(f"trained in {time.perf_counter() - t0:.2f}s "
          f"({report.epochs_run} epochs)", file=sys.stderr)
    if args.model_out:
        save_model(model, args.model_out, config_echo=cfg.echo())
    payload = {
        "command": "train",
        "dataset": dataset.name,
        "config": cfg.echo(),
        "report": _report_payload(report),
    }
    _emit(payload, cfg.out)
    return 0


def cmd_protocol(cfg: RunConfig, args) -> int:
    dataset, splits = _load_dataset(cfg)
    t0 = time.perf_counter()
    result = run_protocol(cfg.model_config(), dataset, splits, cfg.runs,
                          threads=cfg.threads)
    print(f"{cfg.runs} runs in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    payload = {
        "command": "protocol",
        "dataset": dataset.name,
        "config": cfg.echo(),
        "mean": result["mean"],
        "max": result["max"],
        "std": result["std"],
        "runs": result["accuracies"],
    }
    _emit(payload, cfg.out)
    return 0


def cmd_grid_search(cfg: RunConfig, args) -> int:
    grid = []
    with open(args.grid) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                grid.append(MixRecipe.parse(line))
    if not grid:
        raise ConfigError(f"grid file {args.grid} contains no recipes")
    dataset, splits = _load_dataset(cfg)
    best, table = grid_search(dataset, splits, grid, cfg.model_config(),
                              n_seeds=args.grid_seeds)
    payload = {
        "command": "grid-search",
        "dataset": dataset.name,
        "best_recipe": str(best),
        "table": table,
    }
    _emit(payload, cfg.out)
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    if args.dropout > 0:
        print("gradcheck refuses to run with dropout enabled: the loss is "
              "stochastic and finite differences would be meaningless",
              file=sys.stderr)
        return 2
    results = {}
    worst = 0.0
    for h1, h2 in GRADCHECK_SHAPES:
        err = gradient_check(h1, h2, inject_error=args.inject_gradient_error)
        results[f"h1={h1},h2={h2}"] = err
        worst = max(worst, err)
    passed = bool(worst < GRADCHECK_TOLERANCE)
    payload = {
        "command": "gradcheck",
        "max_relative_error": worst,
        "tolerance": GRADCHECK_TOLERANCE,
        "per_shape": results,
        "passed": passed,
    }
    _emit(payload, cfg.out)
    return 0 if passed else 1


def cmd_oracle_check(cfg: RunConfig, args) -> int:
    report = oracle_check(n_graphs=args.graphs, max_n=args.max_n, seed=cfg.seed)
    report["command"] = "oracle-check"
    _emit(report, cfg.out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifgcn",
        description="Motif-weighted graph convolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--dataset", help="planetoid:<name>, ego:<id>, or generic")
        p.add_argument("--data-root", dest="data_root")
        p.add_argument("--recipe", help="e.g. edge:8,triangle:1,wedge:2")
        p.add_argument("--runs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("motif-stats", help="triangle/wedge statistics and CC")
    common(p)
    p.set_defaults(fn=cmd_motif_stats)

    p = sub.add_parser("train", help="train one model")
    common(p)
    p.add_argument("--model-out", help="save weights to this container file")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("protocol", help="mean/max accuracy over repeated runs")
    common(p)
    p.set_defaults(fn=cmd_protocol)

    p = sub.add_parser("grid-search", help="pick a mix recipe by validation accuracy")
    common(p)
    p.add_argument("--grid", required=True, help="file with one recipe per line")
    p.add_argument("--grid-seeds", type=int, default=5)
    p.set_defaults(fn=cmd_grid_search)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--inject-gradient-error", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("oracle-check", help="kernels vs the brute-force oracle")
    common(p)
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--max-n", type=int, default=25)
    p.set_defaults(fn=cmd_oracle_check)

    return parser


OVERRIDE_KEYS = ("dataset", "data_root", "recipe", "runs", "seed", "threads", "out")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        overrides = {k: getattr(args, k, None) for k in OVERRIDE_KEYS}
        cfg.apply_overrides(overrides)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (data_io.DataError, MotifError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
