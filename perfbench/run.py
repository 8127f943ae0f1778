"""End-to-end and per-module benchmark for motifgcn.

Usage, from the root of a checkout (BENCHMARK.json gives the settings):

    python3 perfbench/run.py --workload citeseer_train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--workload all`` runs every workload, each in a fresh process. Inputs
are generated from ``--seed`` outside every timed region. A run is
``ROUNDS`` rounds sharing ``--seconds``; each round repeats set-up, then
the motif-stats sequence, then training operations, each for its share of
the round. Timings are medians; ``runs_per_min`` is the throughput of all
training operations.

With ``--trace 0`` only ``model.train`` is wrapped and the end-to-end
metrics are reported. With ``--trace 1`` one round of three quarters of
``--seconds`` runs traced, then one set-up, motif-stats and operation
untraced for reference; the per-module metrics are reported and the spans are
written to ``.perfbench/``. Every output is checked; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The benchmark sets no BLAS thread variables: ``pubmed_protocol`` exists
to show their effect. Its own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
ROUNDS = 3
# Shares of a round for set-up and motif-stats; training gets the rest,
# as its timings vary most between runs.
SETUP_SHARE = 0.1
MOTIF_SHARE = 0.1
# With --trace 1, the traced round's share of --seconds; the untraced
# reference pass takes about the rest.
TRACED_SHARE = 0.75
CHILD_TIMEOUT_S = 900
NAMES = ("citeseer_train", "pubmed_protocol", "powerlaw_motif")

# End-to-end metrics: unit and which direction is better.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "epoch_ms": ("ms", "lower"),
    "runs_per_min": ("1/min", "higher"),
    "motif_stats_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_acc_mean": ("fraction", "higher"),
}

# Per-module metrics reported by --trace 1, with the end-to-end metric and
# workload each should move. "_s" metrics are self seconds per call,
# "_ms" metrics self milliseconds per training epoch; counts are per
# epoch unless named otherwise.
PER_LAYER = {
    "graph.build_s": ("s", "lower", "setup_s on powerlaw_motif"),
    "data.features_dense_bytes": ("bytes", "lower", "setup_s, peak_rss_mb on citeseer_train, pubmed_protocol"),
    "motifs.triangle_s": ("s", "lower", "setup_s, motif_stats_s on powerlaw_motif"),
    "motifs.wedge_s": ("s", "lower", "setup_s, motif_stats_s, peak_rss_mb on powerlaw_motif"),
    "motifs.normalize_s": ("s", "lower", "setup_s on powerlaw_motif"),
    "motifs.mix_s": ("s", "lower", "setup_s, peak_rss_mb on powerlaw_motif"),
    "motifs.nnz_triangle": ("count", "lower", "motif_stats_s on powerlaw_motif"),
    "motifs.nnz_wedge": ("count", "lower", "setup_s, peak_rss_mb on powerlaw_motif"),
    "motifs.nnz_mixed": ("count", "lower", "epoch_ms, peak_rss_mb on powerlaw_motif"),
    "nn.spmm_ms": ("ms", "lower", "epoch_ms on powerlaw_motif"),
    "nn.spmm_calls": ("count", "lower", "epoch_ms on powerlaw_motif"),
    "nn.spmm_flops": ("flop", "lower", "epoch_ms on powerlaw_motif"),
    "nn.dropout_ms": ("ms", "lower", "epoch_ms, train_s on citeseer_train; runs_per_min on pubmed_protocol"),
    "nn.dropout_draws": ("count", "lower", "epoch_ms on citeseer_train"),
    "model.backward_ms": ("ms", "lower", "epoch_ms, train_s on citeseer_train; runs_per_min on pubmed_protocol"),
    "model.forward_ms": ("ms", "lower", "epoch_ms, train_s everywhere"),
    "model.eval_ms": ("ms", "lower", "epoch_ms, train_s everywhere"),
    "nn.adam_ms": ("ms", "lower", "control: negligible everywhere"),
    "model.epochs_run": ("count", "lower", "train_s everywhere (trajectory, not speed)"),
    "model.protocol_parallel_eff": ("ratio", "higher", "runs_per_min on pubmed_protocol (1 when sequential)"),
    "model.concurrency_slowdown": ("ratio", "lower", "runs_per_min on pubmed_protocol (1 when sequential)"),
}

# Also reported, but absent on a workload that never calls it, so kept out
# of the per-module metrics every workload must give.
EXTRA_LAYER = {"data.load_planetoid_s": ("s", "lower", "setup_s on citeseer_train, pubmed_protocol")}


class Counter:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.by_check = {}
        self.failures = []

    def record(self, check: str, problem) -> None:
        """Count one checked output; ``problem`` is None when it is correct."""
        self.attempted += 1
        self.by_check.setdefault(check, [0, 0])[problem is not None] += 1
        if problem is not None:
            self.failures.append(f"{check}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail(values):
    """(percentile, value) of the highest of p90/p99 with >= 10 samples
    beyond it, or None."""
    best = None
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100)[p - 1])
    return best


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def blas_threads():
    """Thread count OpenBLAS uses in this process, read from the loaded
    library; None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# -- one workload in this process -------------------------------------


def wrap_layers(tracer, motifgcn):
    """Spans around every public function a per-module metric needs."""
    data, graph, model, motifs, nn = (motifgcn.data, motifgcn.graph, motifgcn.model,
                                      motifgcn.motifs, motifgcn.nn)

    def spmm_count(args, result):
        X = args["X"]
        return {"flops": 2 * args["S"].nnz * (X.shape[1] if X.ndim > 1 else 1)}

    def dropout_count(args, result):
        drawn = args["training"] and args["rate"] > 0
        return {"draws": args["H"].size if drawn else 0}

    tracer.wrap(data, "load_planetoid", "data.load_planetoid")
    tracer.wrap(graph.Graph, "from_edge_list", "graph.build")
    tracer.wrap(motifs, "mix_matrices", "motifs.mix")
    tracer.wrap(motifs, "triangle_motif_matrix", "motifs.triangle")
    tracer.wrap(motifs, "wedge_motif_matrix", "motifs.wedge")
    tracer.wrap(motifs, "normalize_symmetric", "motifs.normalize")
    tracer.wrap(model, "build_model", "model.build")
    tracer.wrap(model, "forward",
                lambda args: "model.forward" if args["training"] else "model.eval")
    tracer.wrap(model, "backward", "model.backward")
    tracer.wrap(model, "evaluate", "model.evaluate")
    tracer.wrap(nn, "spmm", "nn.spmm", count=spmm_count)
    tracer.wrap(nn, "dropout_forward", "nn.dropout", count=dropout_count)
    tracer.wrap(nn, "adam_step", "nn.adam")


def repeat(deadline, body):
    """Call body() once, then again while another call should end before
    the deadline (judged by the last call's duration)."""
    while True:
        begin = time.perf_counter()
        body()
        end = time.perf_counter()
        if end + (end - begin) >= deadline:
            return


def run_rounds(workload, tracer, counter, seed, seconds, rounds, log):
    """``rounds`` equal rounds over ``seconds``; in each, set-up, then
    motif-stats, then training operations repeat for their share of the
    round, each at least once. Spreading every phase over the whole run
    keeps one slow stretch of the machine from deciding a median.

    Returns the last set-up's facts and the training runs, or None when
    set-up or motif-stats fails."""
    from workloads import (check_mixed, check_run, check_wedge_bound, motif_stats,
                           setup_with_warnings)

    start = time.perf_counter()
    last = {}

    def setup():
        last.pop("state", None)  # release the previous set-up before the next
        with tracer.span("setup"):
            state, warned = setup_with_warnings(workload, tracer)
        counter.record("setup_no_warning", warned)
        counter.record("mixed_symmetric_finite", check_mixed(state.mixed))
        last["state"] = state

    def stats():
        with tracer.span("motif_stats"):
            last["stats"] = motif_stats(last["state"].dataset.graph)
        counter.record("wedge_nnz_within_2ED", check_wedge_bound(last["stats"]))

    ops = []

    def op():
        first_seed = 1000 * seed + workload.runs_per_op * len(ops)
        n_before = len(tracer.spans)
        try:
            with tracer.span("op"):
                workload.op(last["state"], first_seed)
        except Exception as exc:  # the run goes on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            counter.record("op_completed", f"{type(exc).__name__}: {exc}")
        runs = sorted((s for s in tracer.spans[n_before:] if s.name == "model.train"),
                      key=lambda s: s.counts["seed"])
        for r in runs:
            counter.record("train_finite_and_accurate", check_run(r.counts))
        ops.append(runs)
        log(f"op {len(ops)}: train_s " + " ".join(f"{r.end - r.start:.3f}" for r in runs))

    length = seconds / rounds
    for i in range(rounds):
        begin = time.perf_counter()
        try:
            repeat(begin + SETUP_SHARE * length, setup)
            repeat(begin + (SETUP_SHARE + MOTIF_SHARE) * length, stats)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            counter.record("setup_completed", f"{type(exc).__name__}: {exc}")
            return None
        # Training fills the round up to its fixed end, so time a round
        # leaves unused goes to the next round's training.
        repeat(start + (i + 1) * length, op)
    runs = [r for batch in ops for r in batch]
    if not runs:
        return None
    return {"stats": last["stats"], "runs": runs, "state_info": _state_info(last["state"])}


def _state_info(state) -> dict:
    from workloads import as_csr

    g = state.dataset.graph
    return {"nodes": g.n_nodes, "features": g.feature_dim,
            "nnz_mixed": as_csr(state.mixed).nnz}


def span_durations(tracer, name):
    return [s.end - s.start for s in tracer.spans if s.name == name]


def end_to_end(tracer, result):
    """name -> (value, sample count), and the samples behind each median."""
    runs = result["runs"]
    train = [r.end - r.start for r in runs]
    epoch = [1000 * (r.end - r.start) / r.counts["epochs_run"] for r in runs]
    # Throughput over the whole training phase: every run counts.
    rate = 60 * len(runs) / sum(span_durations(tracer, "op"))
    acc = [r.counts["test_accuracy"] for r in runs]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    setup = span_durations(tracer, "setup")
    motif = span_durations(tracer, "motif_stats")
    return {
        "setup_s": (median(setup), len(setup)),
        "train_s": (median(train), len(train)),
        "epoch_ms": (median(epoch), len(epoch)),
        "runs_per_min": (rate, len(runs)),
        "motif_stats_s": (median(motif), len(motif)),
        "peak_rss_mb": (rss, 1),
        "test_acc_mean": (statistics.fmean(acc), len(acc)),
    }, {"setup_s": setup, "train_s": train, "epoch_ms": epoch, "motif_stats_s": motif}


def per_layer(tracer, result) -> dict:
    summary = tracer.summary()
    runs = result["runs"]
    epochs = sum(r.counts["epochs_run"] for r in runs)

    def per_call(name):
        row = summary.get(name)
        return row["self_s"] / row["calls"] if row else None

    def per_epoch(name, key="self_s", scale=1000.0):
        row = summary.get(name)
        return row.get(key, 0) * scale / epochs if row else None

    stats = result["stats"]
    info = result["state_info"]
    return {
        "graph.build_s": per_call("graph.build"),
        "data.load_planetoid_s": per_call("data.load_planetoid"),
        "data.features_dense_bytes": 8 * info["nodes"] * info["features"],
        "motifs.triangle_s": per_call("motifs.triangle"),
        "motifs.wedge_s": per_call("motifs.wedge"),
        "motifs.normalize_s": per_call("motifs.normalize"),
        "motifs.mix_s": per_call("motifs.mix"),
        "motifs.nnz_triangle": stats["nnz_triangle"],
        "motifs.nnz_wedge": stats["nnz_wedge"],
        "motifs.nnz_mixed": info["nnz_mixed"],
        "nn.spmm_ms": per_epoch("nn.spmm"),
        "nn.spmm_calls": per_epoch("nn.spmm", "calls", 1.0),
        "nn.spmm_flops": per_epoch("nn.spmm", "flops", 1.0),
        "nn.dropout_ms": per_epoch("nn.dropout"),
        "nn.dropout_draws": per_epoch("nn.dropout", "draws", 1.0),
        "model.backward_ms": per_epoch("model.backward"),
        "model.forward_ms": per_epoch("model.forward"),
        "model.eval_ms": per_epoch("model.eval"),
        "nn.adam_ms": per_epoch("nn.adam"),
        "model.epochs_run": median([r.counts["epochs_run"] for r in runs]),
    }


def run_workload(args) -> int:
    if not (SRC / "motifgcn" / "__init__.py").is_file():
        print(f"error: no motifgcn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr, flush=True)

    workload = WORKLOADS[args.workload](ROOT)
    counter = Counter()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        try:
            inputs = workload.prepare(args.seed, Path(workdir))
        except OSError as exc:
            print(f"error: cannot prepare inputs: {exc}", file=sys.stderr)
            return 2
        log(f"inputs {inputs}")
        measure = measure_traced if args.trace else measure_untraced
        measured = measure(workload, args, counter, log)
    if measured is None:
        print("error: set-up or every operation failed", file=sys.stderr)
        return 1
    metrics, samples, notes = measured
    report(args, inputs, counter, metrics, samples)
    for line in notes:
        print(line)
    keep = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        # A wrapped function with no calls is reported missing, not as 0.
        "metrics": {name: {"value": metrics[name][0], "unit": keep[name][0]}
                    for name in keep if metrics[name][0] is not None},
    }
    print(json.dumps(result))
    return 0


def recorder():
    """A tracer that wraps only ``model.train``, keeping each run's outcome."""
    import motifgcn
    from spans import Tracer
    from workloads import train_outcome

    tracer = Tracer()
    tracer.wrap(motifgcn.model, "train", "model.train", count=train_outcome)
    return tracer


def measure_untraced(workload, args, counter, log):
    with recorder() as tracer:
        result = run_rounds(workload, tracer, counter, args.seed, args.seconds,
                            ROUNDS, log)
    if result is None:
        return None
    metrics, samples = end_to_end(tracer, result)
    return metrics, samples, []


def measure_traced(workload, args, counter, log):
    """One traced round, then one untraced reference pass (one set-up,
    motif-stats and operation) with the seeds of the first traced
    operation; the reference runs warm, like most traced repetitions."""
    import motifgcn
    from workloads import setup_with_warnings

    with recorder() as tracer:
        wrap_layers(tracer, motifgcn)
        result = run_rounds(workload, tracer, counter, args.seed,
                            TRACED_SHARE * args.seconds, 1, log)
    with recorder() as plain:
        ref = run_rounds(workload, plain, counter, args.seed, 0, 1, log)
    if result is None or ref is None:
        return None
    ref_runs = ref["runs"]
    traced = {r.counts["seed"]: r for r in result["runs"]}
    for r in ref_runs:
        t = traced.get(r.counts["seed"])
        agree = t is not None and all(r.counts[k] == t.counts[k]
                                      for k in ("epochs_run", "test_accuracy"))
        counter.record("traced_equals_untraced", None if agree else
                       f"untraced {r.counts} vs traced {t and t.counts}")
    concurrent = [r.end - r.start for r in ref_runs]
    solo = median(concurrent)
    if workload.threads > 1:
        # The first run again, alone, to compare with its concurrent time.
        with recorder() as alone:
            state, _ = setup_with_warnings(workload, alone)
            workload.train_one(state, ref_runs[0].counts["seed"])
        solo = span_durations(alone, "model.train")[0]
    layer = per_layer(tracer, result)
    layer["model.protocol_parallel_eff"] = sum(concurrent) / (
        workload.threads * span_durations(plain, "op")[0])
    layer["model.concurrency_slowdown"] = median(concurrent) / solo

    missing = tracer.missing + [name for name, n in tracer.calls.items() if n == 0]
    epoch_ms = median([1000 * (r.end - r.start) / r.counts["epochs_run"]
                       for r in result["runs"]])
    shares = ", ".join(f"{name} {100 * layer[name] / epoch_ms:.1f}%"
                       for name in ("nn.spmm_ms", "nn.dropout_ms", "model.backward_ms",
                                    "model.forward_ms", "model.eval_ms", "nn.adam_ms")
                       if layer[name] is not None)
    overhead_setup = median(span_durations(tracer, "setup")) - span_durations(plain, "setup")[0]
    overhead_train = median([r.end - r.start for r in result["runs"]]) - median(concurrent)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    notes = [
        f"traced epoch_ms {epoch_ms:.4g}; self time per epoch: {shares}",
        f"tracing overhead (traced - untraced): setup_s {overhead_setup:+.4f} s, "
        f"train_s {overhead_train:+.4f} s",
        "calls per wrapped function: " + ", ".join(f"{k} {n}" for k, n in tracer.calls.items()),
        "missing (absent or never called): " + (", ".join(missing) or "none"),
        f"spans written to {trace_path.relative_to(ROOT)}",
    ]
    return {k: (v, 1) for k, v in layer.items()}, {}, notes


def report(args, inputs, counter, metrics, samples) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + json.dumps(environment()))
    print("input " + json.dumps(inputs))
    print(f"{'metric':32} {'value':>14} {'unit':8} {'n':>4}  target / tail")
    table = {**END_TO_END, **PER_LAYER, **EXTRA_LAYER}
    for name, (value, n) in metrics.items():
        unit, _, *target = table[name]
        if value is None:
            print(f"{name:32} {'missing':>14} {unit:8} {0:>4}")
            continue
        t = tail(samples.get(name, []))
        note = f"p{t[0]} {t[1]:.6g}" if t else " ".join(target)
        print(f"{name:32} {value:14.6g} {unit:8} {n:>4}  {note}")
    frac = counter.failed / counter.attempted if counter.attempted else 0.0
    print(f"checks: {counter.attempted} attempted, {counter.failed} failed, "
          f"failed_frac {frac:.4f}")
    for check, (ok, bad) in sorted(counter.by_check.items()):
        print(f"  {check:30} {ok} passed, {bad} failed")
    for line in counter.failures:
        print(f"  FAILED {line}")


# -- all workloads, each in its own process -----------------------------


def run_all(args) -> int:
    if not (SRC / "motifgcn" / "__init__.py").is_file():
        print(f"error: no motifgcn sources under {SRC}", file=sys.stderr)
        return 2
    results = {}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        print()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
