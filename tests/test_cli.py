import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from motifgcn import verify
from motifgcn.cli import main
from motifgcn.config import RunConfig
from motifgcn.data import SplitSpec
from motifgcn.model import ModelConfig
from motifgcn.modelfile import load_model
from motifgcn.motifs import clustering_coefficient, triangle_count

REPO = Path(__file__).resolve().parent.parent
FIXTURE_CONF = str(REPO / "configs" / "fixture.conf")


def fixture_conf_with(tmp_path, *lines):
    """A copy of configs/fixture.conf with lines appended; for a key set
    twice, the later line wins."""
    conf = tmp_path / "extra.conf"
    text = Path(FIXTURE_CONF).read_text().replace("../", f"{REPO}/")
    conf.write_text(text + "".join(line + "\n" for line in lines))
    return str(conf)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


MOTIF_STATS_SCHEMA = {
    "type": "object",
    "required": ["dataset", "nodes", "edges", "max_degree", "triangles",
                 "wedges", "clustering_coefficient", "nnz", "bound_2ED",
                 "wedge_nnz_within_bound"],
    "properties": {
        "nnz": {
            "type": "object",
            "required": ["edge", "triangle", "wedge"],
        },
        "clustering_coefficient": {"type": "number"},
        "wedge_nnz_within_bound": {"type": "boolean"},
    },
}

TRAIN_SCHEMA = {
    "type": "object",
    "required": ["command", "dataset", "config", "report"],
    "properties": {
        "report": {
            "type": "object",
            "required": ["train_losses", "val_losses", "val_accuracies",
                         "best_epoch", "epochs_run", "test_accuracy"],
        }
    },
}


def test_motif_stats_fixture(capsys):
    code, payload = run(capsys, "motif-stats", "--config", FIXTURE_CONF)
    assert code == 0
    jsonschema.validate(payload, MOTIF_STATS_SCHEMA)
    assert payload["dataset"] == "two_community"
    assert payload["wedge_nnz_within_bound"] is True
    assert payload["nnz"]["wedge"] <= payload["bound_2ED"]


def test_motif_stats_counts_equal_the_library(tmp_path, capsys):
    # motif-stats reads the triangle count off the triangle matrix's
    # diagonal; it must equal the library's count.
    g = verify.random_graph(np.random.default_rng(3), 40, 0.2)
    conf = tmp_path / "g.conf"
    conf.write_text("dataset = generic\nedges_file = edges.txt\n"
                    "features_file = features.csv\nlabels_file = labels.csv\n")
    (tmp_path / "edges.txt").write_text("".join(f"{a} {b}\n" for a, b in g.edges))
    (tmp_path / "features.csv").write_text("".join(f"{v},1.0\n" for v in range(40)))
    (tmp_path / "labels.csv").write_text("".join(f"{v},{v % 2}\n" for v in range(40)))
    code, payload = run(capsys, "motif-stats", "--config", str(conf))
    assert code == 0
    assert payload["triangles"] == triangle_count(g) > 0
    assert payload["clustering_coefficient"] == clustering_coefficient(g)
    (tmp_path / "edges.txt").write_text("0 1\n2 3\n")  # no two edges share a node
    assert main(["motif-stats", "--config", str(conf)]) == 1
    assert "graph has no wedges" in capsys.readouterr().err


def test_motif_stats_builds_no_split(tmp_path, capsys):
    # The fixture's classes are too small for 100 training nodes each, so
    # train cannot split them; motif-stats never uses a split.
    conf = fixture_conf_with(tmp_path, "per_class_train = 100")
    assert main(["train", "--config", conf]) == 1
    assert "labeled nodes" in capsys.readouterr().err
    code, payload = run(capsys, "motif-stats", "--config", conf)
    assert code == 0
    assert payload == run(capsys, "motif-stats", "--config", FIXTURE_CONF)[1]


def test_train_schema_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["train", "--config", FIXTURE_CONF, "--seed", "7", "--out", str(a)]) == 0
    assert main(["train", "--config", FIXTURE_CONF, "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    jsonschema.validate(payload, TRAIN_SCHEMA)
    assert 0.0 <= payload["report"]["test_accuracy"] <= 1.0


def test_train_saves_model_container(tmp_path):
    model_path = tmp_path / "model.bin"
    out = tmp_path / "report.json"
    assert main(["train", "--config", FIXTURE_CONF,
                 "--model-out", str(model_path), "--out", str(out)]) == 0
    header, weights = load_model(model_path)
    assert [s["shape"] for s in header["layers"]] == [[5, 16], [16, 16], [16, 2]]
    assert [s["role"] for s in header["layers"]] == ["gcn", "gcn", "mlp"]
    assert [s["activation"] for s in header["layers"]] == ["relu", "relu", "softmax"]
    assert header["config"]["recipe"] == "edge:8,triangle:1,wedge:2"
    assert all(w.dtype == "float64" for w in weights)

    conf = fixture_conf_with(tmp_path, "h1 = 1", "h2 = 0")
    assert main(["train", "--config", conf,
                 "--model-out", str(model_path), "--out", str(out)]) == 0
    header, _ = load_model(model_path)
    assert [(s["role"], s["activation"], s["shape"]) for s in header["layers"]] == [
        ("gcn", "softmax", [5, 2])]


def test_train_echoes_no_protocol_keys(tmp_path, capsys):
    # runs and threads stay settable in the config file, but only protocol
    # reads them, so train echoes neither.
    conf = fixture_conf_with(tmp_path, "runs = 7", "threads = 2")
    model_path = tmp_path / "model.bin"
    code, payload = run(capsys, "train", "--config", conf, "--model-out", str(model_path))
    assert code == 0
    header, _ = load_model(model_path)
    assert header["config"] == payload["config"]
    assert not {"runs", "threads"} & payload["config"].keys()
    code, payload = run(capsys, "protocol", "--config", conf, "--runs", "1")
    assert code == 0
    assert (payload["config"]["runs"], payload["config"]["threads"]) == (1, 2)


@pytest.mark.parametrize("line", ["no_such_option = 1", "normalize_features = auto",
                                  "label_rule = lowest"])
def test_bad_config_key_exits_2(tmp_path, capsys, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    code = main(["train", "--config", str(conf)])
    err = capsys.readouterr().err
    assert code == 2
    assert line.split()[0] in err


@pytest.mark.parametrize("conf", sorted((REPO / "configs").glob("*.conf")),
                         ids=lambda path: path.name)
def test_shipped_config_parses(conf):
    cfg = RunConfig.from_file(conf)
    model = cfg.model_config()
    assert (str(model.recipe), model.h1, model.h2) == (cfg.recipe, cfg.h1, cfg.h2)


def test_run_config_defaults_are_the_library_defaults():
    assert RunConfig().model_config() == ModelConfig()
    assert RunConfig().split_spec() == SplitSpec()


def _other_value(default):
    # A valid value other than the default, for every field type in use.
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    return default / 2


@pytest.mark.parametrize("cls, build", [(ModelConfig, RunConfig.model_config),
                                        (SplitSpec, RunConfig.split_spec)])
def test_run_config_maps_each_setting_by_name(cls, build):
    # Each setting arrives under its own name and moves no other one.
    for f in dataclasses.fields(cls):
        if f.name == "recipe":
            continue
        value = _other_value(getattr(cls(), f.name))
        cfg = RunConfig(**{f.name: value})
        cfg.validate()
        assert build(cfg) == dataclasses.replace(cls(), **{f.name: value}), f.name


BAD_CONFIG_LINES = [
    "h1 = 0", "h2 = -1", "hidden_dim = 0", "max_epochs = 0", "patience = 0",
    "runs = 0", "threads = 0", "learning_rate = 0", "learning_rate = nan",
    "dropout = 1.0", "weight_decay = -1", "val_fraction = -0.1",
    "val_fraction = 0", "per_class_train = 0", "seed = -1",
]


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_bad_config_value_exits_2(tmp_path, capsys, line):
    code = main(["train", "--config", fixture_conf_with(tmp_path, line)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "configuration error" in captured.err


@pytest.mark.parametrize("line", ["per_class_train = 5", "val_fraction = 0.2",
                                  "test_fraction = 0.4", "allow_small_classes = true"])
def test_planetoid_rejects_split_keys(tmp_path, capsys, line):
    # Planetoid datasets always use the published split, so a split key
    # would be silently ignored; it is rejected before any file is read.
    conf = tmp_path / "planetoid.conf"
    conf.write_text(f"dataset = planetoid:cora\n{line}\n")
    code = main(["train", "--config", str(conf), "--data-root", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert line.split()[0] in err


def test_planetoid_split_keys_default_and_override(tmp_path, capsys):
    conf = tmp_path / "planetoid.conf"
    conf.write_text("dataset = planetoid:cora\nper_class_train = 20\n")
    # passes validation, then finds no dataset files
    assert main(["train", "--config", str(conf), "--data-root", str(tmp_path)]) == 1
    # a split key from the config file also counts under a --dataset override
    assert main(["motif-stats", "--config", FIXTURE_CONF,
                 "--dataset", "planetoid:cora", "--data-root", str(tmp_path)]) == 2
    assert "per_class_train" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["imagenet:cat", "ego:abc", "planetoid:foo", "planetoid"])
def test_bad_dataset_spec_exits_2(tmp_path, capsys, spec):
    # Rejected before any file is read, even with a data root present.
    code = main(["motif-stats", "--dataset", spec, "--data-root", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err


def test_missing_data_root_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("MOTIFGCN_DATA", raising=False)
    code = main(["motif-stats", "--dataset", "planetoid:cora"])
    err = capsys.readouterr().err
    assert code == 2
    assert "MOTIFGCN_DATA" in err


def test_missing_dataset_files_exit_1(tmp_path, capsys):
    code = main(["motif-stats", "--dataset", "planetoid:cora",
                 "--data-root", str(tmp_path)])
    assert code == 1


def test_non_utf8_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"\xff\xfe\x00")
    code = main(["train", "--config", str(conf)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and str(conf) in err


def test_non_utf8_dataset_file_exits_1_naming_it(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"0 1\n\xff\xfe 2\n")
    code = main(["motif-stats", "--config",
                 fixture_conf_with(tmp_path, f"edges_file = {edges}")])
    err = capsys.readouterr().err
    assert code == 1
    assert str(edges) in err and "UTF-8" in err


def test_protocol_output(tmp_path, capsys):
    code, payload = run(capsys, "protocol", "--config", FIXTURE_CONF,
                        "--runs", "3", "--seed", "1")
    assert code == 0
    assert len(payload["runs"]) == 3
    assert payload["mean"] == pytest.approx(sum(payload["runs"]) / 3)
    assert payload["max"] == max(payload["runs"])
    assert payload["std"] == pytest.approx(float(np.std(payload["runs"])))


def test_protocol_threads_match_sequential(tmp_path, capsys):
    # The runs on two threads share one mixed operator, built with the
    # fixture's wedge-bearing recipe; they must give the sequential result.
    results = []
    for threads in (1, 2):
        conf = fixture_conf_with(tmp_path, f"threads = {threads}")
        code, payload = run(capsys, "protocol", "--config", conf, "--runs", "4")
        assert code == 0
        assert payload["config"].pop("threads") == threads
        results.append(payload)
    assert results[0] == results[1]


def test_gradcheck_passes(capsys):
    code, payload = run(capsys, "gradcheck")
    assert code == 0
    assert payload["passed"] is True
    assert payload["max_relative_error"] < 1e-6
    assert len(payload["per_shape"]) == 4


def test_gradcheck_negative_control(capsys, monkeypatch):
    backward = verify.backward

    def wrong_backward(*args):
        grads = backward(*args)
        grads[0] = grads[0] + 1e-3
        return grads

    monkeypatch.setattr(verify, "backward", wrong_backward)
    code, payload = run(capsys, "gradcheck")
    assert code == 1
    assert payload["passed"] is False


def test_gradcheck_refuses_dropout(capsys):
    # gradcheck has no dropout flag: a stochastic loss would make finite
    # differences meaningless, so argparse rejects it.
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--dropout", "0.5"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "dropout" in err


@pytest.mark.parametrize("argv", [
    ["train", "--config", FIXTURE_CONF, "--runs", "7"],
    ["train", "--config", FIXTURE_CONF, "--threads", "9"],
    ["motif-stats", "--config", FIXTURE_CONF, "--seed", "4"],
    ["grid-search", "--config", FIXTURE_CONF, "--grid", "g.txt", "--threads", "2"],
    ["grid-search", "--config", FIXTURE_CONF, "--grid", "g.txt", "--recipe", "edge:1"],
    ["gradcheck", "--config", FIXTURE_CONF],
    ["gradcheck", "--dropout", "0"],
    ["oracle-check", "--dataset", "planetoid:cora"],
])
def test_unread_flag_exits_2(capsys, argv):
    # A subcommand takes only the flags it reads.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("argv", [
    ["grid-search", "--config", FIXTURE_CONF, "--grid", "no-such-file", "--grid-seeds", "0"],
    ["oracle-check", "--graphs", "0"],
    ["oracle-check", "--graphs", "-3"],
    ["oracle-check", "--max-n", "4"],
    ["oracle-check", "--max-n", "31"],
])
def test_bad_subcommand_flag_value_exits_2(capsys, argv):
    # Checked before any work: the grid file is not even opened.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("command", ["train", "protocol", "grid-search", "oracle-check"])
def test_negative_seed_exits_2_before_any_file_is_read(tmp_path, capsys, command):
    # The data root is empty and the grid file missing, so reading either
    # would exit 1.
    argv = [command, "--seed", "-1"]
    if command != "oracle-check":
        argv += ["--dataset", "planetoid:cora", "--data-root", str(tmp_path)]
    if command == "grid-search":
        argv += ["--grid", str(tmp_path / "grid.txt")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "configuration error: seed must be >= 0" in captured.err


@pytest.mark.parametrize("grid_text, message", [
    (None, "cannot read grid file {grid}: "),
    ("edge:1\n\n# a comment\nedgy:2\n", "{grid} line 4: cannot parse recipe component"),
    ("edge:nan\n", "{grid} line 1: "),
    (b"edge:1 # caf\xe9\n", "{grid} is not UTF-8 text"),
])
def test_bad_grid_file_exits_2(tmp_path, capsys, grid_text, message):
    # A grid file that is missing or holds a bad recipe is a configuration
    # error, as the same recipe given by --recipe is.
    grid = tmp_path / "grid.txt"
    if isinstance(grid_text, bytes):  # not UTF-8 text
        grid.write_bytes(grid_text)
    elif grid_text is not None:
        grid.write_text(grid_text)
    code = main(["grid-search", "--config", FIXTURE_CONF, "--grid", str(grid)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"configuration error: {message.format(grid=grid)}" in captured.err


@pytest.mark.parametrize("argv", [
    ["protocol", "--config", FIXTURE_CONF, "--runs", "x"],
    ["train", "--config", FIXTURE_CONF, "--seed", "abc"],
])
def test_non_integer_flag_exits_2(capsys, argv):
    # A flag value goes through the same cast as the config key it
    # overrides, so it fails with the same message.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"configuration error: bad value for {argv[-2][2:]}: " in captured.err


def test_oracle_check_bounds_accepted(capsys):
    code, payload = run(capsys, "oracle-check", "--graphs", "1", "--max-n", "5")
    assert code == 0 and payload["passed"] is True
    code, payload = run(capsys, "oracle-check", "--graphs", "1", "--max-n", "30")
    assert code == 0 and payload["passed"] is True


def test_oracle_check(capsys):
    code, payload = run(capsys, "oracle-check", "--graphs", "5", "--max-n", "12")
    assert code == 0
    assert payload["passed"] is True
    assert payload["mismatches"] == []


def test_grid_search(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("edge:1\nedge:8,triangle:1,wedge:2  # three-source mix\n")
    code, payload = run(capsys, "grid-search", "--config", FIXTURE_CONF,
                        "--grid", str(grid), "--grid-seeds", "2")
    assert code == 0
    assert len(payload["table"]) == 2
    assert payload["best_recipe"] in {r["recipe"] for r in payload["table"]}
    for row in payload["table"]:
        assert 0.0 <= row["val_accuracy_mean"] <= 1.0


def test_console_entry_point():
    # pytest's warning filter does not reach the subprocess.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "motifgcn.cli", "motif-stats",
         "--config", FIXTURE_CONF],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dataset"] == "two_community"
