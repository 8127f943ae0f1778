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
from dataclasses import asdict

from . import data as data_io
from .config import ConfigError, RunConfig
from .graph import build_adjacency, max_degree
from .motifs import (
    MixRecipe,
    MotifError,
    clustering_from_counts,
    triangle_motif_matrix,
    wedge_count,
    wedge_motif_nnz,
)
from .model import grid_search, run_protocol, train
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
    """Returns (Dataset, Splits or None): a planetoid dataset comes with
    its published split, the others with none."""
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
    return dataset, None


def _load_split_dataset(cfg: RunConfig):
    """Returns (Dataset, Splits). A split that is not published is seeded
    by cfg.seed and stays fixed across the runs of a protocol."""
    dataset, splits = _load_dataset(cfg)
    return dataset, splits or data_io.make_splits(dataset, cfg.split_spec(), cfg.seed)


def cmd_motif_stats(cfg: RunConfig, args) -> int:
    dataset, _ = _load_dataset(cfg)
    g = dataset.graph
    A = build_adjacency(g)
    tri = triangle_motif_matrix(A)
    wedge_nnz = wedge_motif_nnz(A, tri)
    # Each triangle adds 1 to the diagonal entry of each of its three nodes.
    triangles = int(tri.diagonal().sum()) // 3
    wedges = wedge_count(g)
    d_max = max_degree(g)
    bound = 2 * g.n_edges * d_max
    payload = {
        "dataset": dataset.name,
        "nodes": g.n_nodes,
        "edges": g.n_edges,
        "max_degree": d_max,
        "triangles": triangles,
        "wedges": wedges,
        "clustering_coefficient": clustering_from_counts(triangles, wedges),
        "nnz": {"edge": A.nnz, "triangle": tri.nnz, "wedge": wedge_nnz},
        "bound_2ED": bound,
        "wedge_nnz_within_bound": wedge_nnz <= bound,
    }
    _emit(payload, cfg.out)
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    dataset, splits = _load_split_dataset(cfg)
    t0 = time.perf_counter()
    model, report = train(cfg.model_config(), dataset, splits)
    print(f"trained in {time.perf_counter() - t0:.2f}s "
          f"({report.epochs_run} epochs)", file=sys.stderr)
    # runs and threads are read by protocol only
    echo = {k: v for k, v in cfg.echo().items() if k not in ("runs", "threads")}
    if args.model_out:
        # No layer header: the roles follow from h1 in the echo (see Model).
        _emit({"config": echo, "weights": [W.tolist() for W in model.weights]},
              args.model_out)
    payload = {
        "command": "train",
        "dataset": dataset.name,
        "config": echo,
        "report": asdict(report),
    }
    _emit(payload, cfg.out)
    return 0


def cmd_protocol(cfg: RunConfig, args) -> int:
    dataset, splits = _load_split_dataset(cfg)
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
    if args.grid_seeds < 1:
        raise ConfigError("--grid-seeds must be >= 1")
    try:
        lines = list(data_io._lines(args.grid, ConfigError))
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {args.grid}: {exc}")
    grid = []
    for ln, line in lines:
        try:
            grid.append(MixRecipe.parse(line))
        except ValueError as exc:
            raise ConfigError(f"{args.grid} line {ln}: {exc}")
    if not grid:
        raise ConfigError(f"grid file {args.grid} contains no recipes")
    dataset, splits = _load_split_dataset(cfg)
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
    results = {}
    worst = 0.0
    for h1, h2 in GRADCHECK_SHAPES:
        err = gradient_check(h1, h2)
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
    if args.graphs < 1 or not 5 <= args.max_n <= 30:
        raise ConfigError("oracle-check needs --graphs >= 1 and 5 <= --max-n <= 30")
    report = oracle_check(n_graphs=args.graphs, max_n=args.max_n, seed=cfg.seed)
    report["command"] = "oracle-check"
    _emit(report, cfg.out)
    return 0 if report["passed"] else 1


# --config, and the flags that override the config key of the same name.
COMMON_FLAGS = {
    "config": {"help": "key=value config file"},
    "dataset": {"help": "planetoid:<name>, ego:<id>, or generic"},
    "data-root": {},
    "recipe": {"help": "e.g. edge:8,triangle:1,wedge:2"},
    "runs": {},
    "seed": {},
    "threads": {},
    "out": {"help": "write the JSON report here instead of stdout"},
}
OVERRIDE_KEYS = tuple(f.replace("-", "_") for f in COMMON_FLAGS if f != "config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifgcn",
        description="Motif-weighted graph convolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, flags):
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **COMMON_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    command("motif-stats", cmd_motif_stats, "triangle/wedge statistics and CC",
            "config dataset data-root out")

    p = command("train", cmd_train, "train one model",
                "config dataset data-root recipe seed out")
    p.add_argument("--model-out", help="write the config echo and weights here as JSON")

    command("protocol", cmd_protocol, "mean/max accuracy over repeated runs",
            " ".join(COMMON_FLAGS))

    p = command("grid-search", cmd_grid_search, "pick a mix recipe by validation accuracy",
                "config dataset data-root seed out")
    p.add_argument("--grid", required=True, help="file with one recipe per line")
    p.add_argument("--grid-seeds", type=int, default=5)

    command("gradcheck", cmd_gradcheck, "finite-difference gradient verification", "out")

    p = command("oracle-check", cmd_oracle_check, "kernels vs the brute-force oracle",
                "seed out")
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--max-n", type=int, default=25)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
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
