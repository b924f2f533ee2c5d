import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from ucalab import cli
from ucalab.cli import main, read_config
from ucalab.core import ValueTable
from ucalab.dataset import load_dataset
from ucalab.neural import MlpModel, init_model
from ucalab.seeding import derive_seed


def run_cli(argv):
    """Invoke main() in-process; argparse exits raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


SUBCOMMANDS = ["generate", "solve", "label", "train", "rollout", "bench", "pipeline"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_has_help(command, capsys):
    assert run_cli([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--" in out


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["solve", "--table", "x", "--frobnicate"]) == 2


def test_missing_subcommand_is_usage_error():
    assert run_cli([]) == 2


def test_generate_solve_label_train_rollout_chain(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    assert run_cli([
        "generate", "--dist", "npd", "--n", "6", "--m", "2",
        "--seed", "3", "--mu", "0", "--sigma", "1", "--out", str(table_path),
    ]) == 0
    table = ValueTable.load(table_path)
    assert (table.n, table.m, table.seed) == (6, 2, 3)

    capsys.readouterr()
    assert run_cli(["solve", "--table", str(table_path)]) == 0
    line = capsys.readouterr().out.strip()
    fields = line.split(",")
    assert len(fields) == 7  # value plus 6 labels
    value = float(fields[0])
    labels = [int(x) for x in fields[1:]]
    assert all(lab in (0, 1) for lab in labels)

    data_path = tmp_path / "d.ucad"
    assert run_cli([
        "label", "--table", str(table_path), "--kappa", "2",
        "--pairs", "30", "--seed", "4", "--out", str(data_path),
    ]) == 0
    pairs, n, m, kappa = load_dataset(data_path)
    assert (n, m, kappa) == (6, 2, 2)
    assert len(pairs) == 60

    model_path = tmp_path / "m.ucam"
    assert run_cli([
        "train", "--data", str(data_path), "--out", str(model_path),
        "--lr-grid", "1e-3", "--batch-grid", "16", "--epochs", "5", "--seed", "5",
    ]) == 0
    model = MlpModel.load(model_path)
    assert (model.n, model.m) == (6, 2)
    trace_lines = (tmp_path / "training_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "epoch,train_loss,test_loss"
    assert len(trace_lines) == 7  # header + epochs 0..5

    capsys.readouterr()
    assert run_cli([
        "rollout", "--table", str(table_path), "--estimator", "neural",
        "--model", str(model_path), "--evals", "20", "--checkpoints", "5,20", "--seed", "6",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "checkpoint,best_value"
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["5", "20"]
    assert float(rows[-1][1]) <= value + 1e-12  # bounded by the exact optimum


def test_rollout_refuses_a_model_with_a_zero_value_std(tmp_path, capsys):
    # such a model used to load, and the rollout printed numpy warnings and a
    # meaningless curve with exit 0
    table_path, model_path = tmp_path / "t.ucav", tmp_path / "m.ucam"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "1", "--out", str(table_path)])
    init_model(4, 2, np.random.default_rng(0)).save(model_path)
    raw = model_path.read_bytes()
    # the value std follows the magic, the version, n, m and the value mean
    model_path.write_bytes(raw[:21] + struct.pack("<d", 0.0) + raw[29:])
    capsys.readouterr()
    code = run_cli(["rollout", "--table", str(table_path), "--estimator", "neural", "--model", str(model_path),
                    "--evals", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert "value norm" in captured.err and captured.out == ""


def test_train_with_a_grid_prints_the_chosen_cell_and_writes_its_trace(tmp_path, capsys):
    table_path, data_path, model_path = tmp_path / "t.ucav", tmp_path / "d.ucad", tmp_path / "m.ucam"
    run_cli(["generate", "--dist", "npd", "--n", "5", "--m", "2", "--seed", "1", "--out", str(table_path)])
    run_cli(["label", "--table", str(table_path), "--kappa", "2", "--pairs", "30", "--seed", "2",
             "--out", str(data_path)])
    capsys.readouterr()
    assert run_cli(["train", "--data", str(data_path), "--out", str(model_path),
                    "--lr-grid", "1e-3,3e-3", "--batch-grid", "8", "--epochs", "1"]) == 0
    out = capsys.readouterr().out
    chosen = re.search(r"lr=(\S+), batch=8, final test loss=(\S+)\)", out)
    assert chosen and float(chosen[1]) in (1e-3, 3e-3)
    rows = (tmp_path / "training_trace.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,test_loss" and len(rows) == 3
    assert f"{float(rows[-1].split(',')[2]):.6g}" == chosen[2]
    MlpModel.load(model_path)


def test_bench_prediction_writes_its_four_files(tmp_path, capsys):
    table_path, model_path, out_dir = tmp_path / "t.ucav", tmp_path / "m.ucam", tmp_path / "out"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "9", "--out", str(table_path)])
    init_model(4, 2, np.random.default_rng(0)).save(model_path)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"table={table_path}\nmodel={model_path}\nlevels=1,2\nsamples_per_level=5\n")
    capsys.readouterr()
    assert run_cli(["bench", "--experiment", "prediction", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    names = ["prediction_errors.csv", "prediction_scatter.csv", "prediction_errors.svg", "prediction_scatter.svg"]
    assert capsys.readouterr().out == "wrote " + ", ".join(str(out_dir / name) for name in names) + "\n"
    assert all((out_dir / name).stat().st_size > 0 for name in names)


def test_rollout_neural_requires_model(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "1", "--out", str(table_path)])
    code = run_cli(["rollout", "--table", str(table_path), "--estimator", "neural", "--evals", "5"])
    assert code == 2
    assert "--model" in capsys.readouterr().err


def test_solve_budget_exhaustion_is_runtime_error(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "8", "--m", "3", "--seed", "1", "--out", str(table_path)])
    assert run_cli(["solve", "--table", str(table_path), "--budget", "10"]) == 1
    assert "budget" in capsys.readouterr().err


def test_generate_trap_defaults_tau_to_half_n(tmp_path):
    out = tmp_path / "trap.ucav"
    run_cli(["generate", "--dist", "trap", "--n", "8", "--m", "2", "--seed", "2",
             "--sigma", "0", "--out", str(out)])
    table = ValueTable.load(out)
    from ucalab.valuegen import TrapParams, trap_mean

    p = TrapParams(sigma=0.0, delta=0.1, tau_threshold=4.0, epsilon=0.1)
    assert table.values[0b1111, 0] == trap_mean(4, p)  # bonus applies at s = tau


def test_bench_probability_and_histogram(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "6", "--m", "2", "--seed", "9",
             "--mu", "0", "--sigma", "1", "--out", str(table_path)])
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"table={table_path}\nsamples=2000\nseed=1\n")
    out_dir = tmp_path / "out"
    assert run_cli(["bench", "--experiment", "probability", "--config", str(cfg),
                    "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "probability.csv").read_text().splitlines()
    assert lines[0] == "samples,positives,probability"
    samples, positives, prob = lines[1].split(",")
    assert int(samples) == 2000
    assert 0.0 <= float(prob) <= 1.0

    cfg.write_text(f"table={table_path}\nsamples=2000\nbins=16\nseed=1\n")
    assert run_cli(["bench", "--experiment", "histogram", "--config", str(cfg),
                    "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "histogram.csv").exists()
    assert (out_dir / "histogram.svg").exists()


def test_bench_missing_config_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("samples=100\n")
    code = run_cli(["bench", "--experiment", "probability", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "table" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_unknown_config_key_names_it(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "9", "--out", str(table_path)])
    capsys.readouterr()
    cfg = tmp_path / "bench.cfg"
    # "bin" for "bins" used to fall back to 100 bins and exit 0
    cfg.write_text(f"table={table_path}\nsamples=100\nbin=5\n")
    out_dir = tmp_path / "out"
    code = run_cli(["bench", "--experiment", "histogram", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert "unknown config key: bin" in capsys.readouterr().err
    assert not (out_dir / "histogram.csv").exists()


@pytest.mark.parametrize(
    "experiment, config, message",
    [
        # `models` without the neural estimator used to be ignored, with exit 0
        ("curves", "tables={table}\nestimators=current\nevals=5\ncheckpoints=5\nmodels={dir}/missing.ucam\n",
         "models is required for the neural estimator and refused for the others"),
        ("curves", "tables={table},{dir}/missing.ucav\nestimators=neural\nevals=5\ncheckpoints=5\n"
         "models={dir}/m.ucam\n", "models must list one model per table"),
        ("curves", "tables=\nestimators=current\nevals=5\ncheckpoints=5\n",
         "config key tables: must list at least one value"),
        ("prediction", "table={table}\nmodel={dir}/missing.ucam\nlevels=\nsamples_per_level=5\n",
         "config key levels: must list at least one value"),
        ("histogram", "table={table}\nsamples=100\nbins=many\n", "config key bins: invalid literal for int()"),
        # these two used to load the tables first, so a missing table exited 1
        ("curves", "tables={dir}/missing.ucav\nestimators=current,greedy\nevals=5\ncheckpoints=5\n",
         "config key estimators: unknown distribution or estimator: greedy"),
        ("curves", "tables={dir}/missing.ucav\nestimators=current\nevals=5\ncheckpoints=5,10\n",
         "checkpoints must lie in 1..n_evals"),
        # a repeated estimator used to be merged silently
        ("curves", "tables={dir}/missing.ucav\nestimators=current,random,current\nevals=5\ncheckpoints=5\n",
         "config key estimators: repeated distribution or estimator: current"),
        # an empty table used to exit 1 with "No such file or directory: ''"
        ("probability", "table=\nsamples=10\n", "config key table: must not be empty"),
        ("prediction", "table={table}\nmodel=\nlevels=1\nsamples_per_level=5\n",
         "config key model: must not be empty"),
    ],
    ids=["models-without-neural", "model-count-before-loading", "empty-tables", "empty-levels", "unparsable-value",
         "unknown-estimator-before-loading", "checkpoint-beyond-evals-before-loading",
         "repeated-estimator-before-loading", "empty-table", "empty-model"],
)
def test_bench_refuses_bad_config_by_name_before_loading_or_writing(tmp_path, capsys, experiment, config, message):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "9", "--out", str(table_path)])
    capsys.readouterr()
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(config.format(table=table_path, dir=tmp_path))
    out_dir = tmp_path / "out"
    assert run_cli(["bench", "--experiment", experiment, "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "experiment, config",
    [
        ("prediction", "table={table}\nmodel={model}\nlevels=1\nsamples_per_level=5\n"),
        ("curves", "tables={table}\nestimators=current,neural\nevals=5\ncheckpoints=5\nmodels={model}\n"),
    ],
    ids=["prediction", "curves"],
)
def test_bench_refuses_a_model_for_other_dimensions_before_any_work(tmp_path, capsys, monkeypatch, experiment, config):
    # the prediction report used to be written with every prediction meaningless;
    # neither the labeling nor the rollouts may start
    monkeypatch.setattr(cli, "prediction_error_report", None)
    monkeypatch.setattr(cli, "benchmark_curves", None)
    table_path, model_path = tmp_path / "t.ucav", tmp_path / "m.ucam"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "3", "--seed", "9", "--out", str(table_path)])
    init_model(4, 2, np.random.default_rng(0)).save(model_path)
    capsys.readouterr()
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(config.format(table=table_path, model=model_path))
    out_dir = tmp_path / "out"
    assert run_cli(["bench", "--experiment", experiment, "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "model is for n=4, m=2, but the table has n=4, m=3" in capsys.readouterr().err
    assert not out_dir.exists()


def test_read_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n\nkey = value\nn=10\n")
    parsed = read_config(cfg)
    assert parsed == {"key": "value", "n": "10"}
    # an empty key is not a key=value line either
    for line in ("not a pair", "=3", " = "):
        cfg.write_text(f"n=10\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"line 2: expected key=value, got {line.strip()!r}")):
            read_config(cfg)


PIPELINE_CONFIG = """
master_seed=1234
n=7
m=3
kappa=2
pairs_per_level=40
epochs=4
learning_rate=1e-3
batch_size=16
instances=2
evals=30
checkpoints=10,30
out_dir={out_dir}
mu=0
sigma=1
"""


def pipeline_config(out_dir, extra=""):
    """PIPELINE_CONFIG with each key=value line of `extra` in place of the
    line that sets the same key."""
    config = dict(line.split("=", 1) for line in PIPELINE_CONFIG.format(out_dir=out_dir).split("\n") if line)
    config.update(line.split("=", 1) for line in extra.split("\n") if line)
    return "".join(f"{key}={value}\n" for key, value in config.items())


def test_pipeline_refuses_a_missing_config_file(tmp_path, capsys):
    assert run_cli(["pipeline", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_pipeline_without_neural_accepts_more_than_255_alternatives(tmp_path, capsys):
    # only a dataset needs a label byte; tables and curves take any m
    out_dir = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(pipeline_config(out_dir, "n=2\nm=256\nkappa=1\ninstances=1\nestimators=current,random\n"))
    assert run_cli(["pipeline", "--config", str(cfg)]) == 0
    assert not any((out_dir / "datasets").iterdir())
    assert (out_dir / "curves" / "curves_npd.csv").exists()


def test_label_refuses_a_table_whose_labels_a_byte_cannot_hold_before_labeling(tmp_path, capsys, monkeypatch):
    # m=300 used to label every record before the dataset writer refused it
    monkeypatch.setattr(cli, "build_dataset", None)
    table_path, out = tmp_path / "wide.ucav", tmp_path / "wide.ucad"
    ValueTable(2, 256, np.zeros((4, 256))).save(table_path)
    argv = ["label", "--table", str(table_path), "--kappa", "1", "--pairs", "5", "--seed", "1", "--out", str(out)]
    assert run_cli(argv) == 2
    assert "m=256 exceeds 255, the most alternatives a label byte can hold" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_missing_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("master_seed=1\nn=5\n")
    assert run_cli(["pipeline", "--config", str(cfg)]) == 2
    assert "missing config key: m" in capsys.readouterr().err


def test_pipeline_produces_artifacts_and_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "run_a"
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(PIPELINE_CONFIG.format(out_dir=out_a))
    assert run_cli(["pipeline", "--config", str(cfg_a)]) == 0

    for dist in ("npd", "trap"):
        for i in range(2):
            assert (out_a / "tables" / f"{dist}_{i}.ucav").exists()
            assert (out_a / "datasets" / f"{dist}_{i}.ucad").exists()
            assert (out_a / "models" / f"{dist}_{i}.ucam").exists()
            assert (out_a / "models" / f"{dist}_{i}_trace.csv").exists()
        assert (out_a / "curves" / f"curves_{dist}.csv").exists()
        assert (out_a / "curves" / f"curves_{dist}.svg").exists()
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    assert manifest_a["optimum"]["npd"] is not None

    out_b = tmp_path / "run_b"
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(PIPELINE_CONFIG.format(out_dir=out_b))
    assert run_cli(["pipeline", "--config", str(cfg_b)]) == 0
    manifest_b = json.loads((out_b / "manifest.json").read_text())

    # identical artifact hashes and byte-identical CSVs across reruns
    assert manifest_a["files"] == manifest_b["files"]
    for rel in manifest_a["files"]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    assert manifest_a["seeds"] == manifest_b["seeds"]


def test_pipeline_prints_marker_when_optimum_intractable(tmp_path, capsys):
    # the budget admits depth-2 labeling (17 DP updates per record) but not
    # the depth-12 exact solve (3^12 completions), mirroring full-scale runs
    out_dir = tmp_path / "big"
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "master_seed=9\nn=12\nm=3\nkappa=2\npairs_per_level=20\nepochs=2\n"
        "learning_rate=1e-3\nbatch_size=8\ninstances=1\nevals=10\ncheckpoints=10\n"
        f"node_budget=50000\nout_dir={out_dir}\ndistributions=npd\n"
        "estimators=current,random,neural\n"
    )
    assert run_cli(["pipeline", "--config", str(cfg)]) == 0
    assert "optimum unavailable at this scale" in capsys.readouterr().out
    curves = (out_dir / "curves" / "curves_npd.csv").read_text()
    assert "# optimum unavailable at this scale" in curves
    assert "optimum," not in curves
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["optimum"]["npd"] is None


def test_cli_entry_point_subprocess(tmp_path):
    out = tmp_path / "t.ucav"
    proc = subprocess.run(
        [sys.executable, "-m", "ucalab.cli", "generate", "--dist", "npd", "--n", "4",
         "--m", "2", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_solve_truncated_table_is_runtime_error(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "1", "--out", str(table_path)])
    table_path.write_bytes(table_path.read_bytes()[:-8])
    assert run_cli(["solve", "--table", str(table_path)]) == 1
    assert "value bytes" in capsys.readouterr().err


def label_small_dataset(tmp_path):
    table_path = tmp_path / "t.ucav"
    data_path = tmp_path / "d.ucad"
    run_cli(["generate", "--dist", "npd", "--n", "5", "--m", "2", "--seed", "1", "--out", str(table_path)])
    run_cli(["label", "--table", str(table_path), "--kappa", "2", "--pairs", "20", "--seed", "2",
             "--out", str(data_path)])
    return data_path


def test_train_truncated_dataset_is_runtime_error(tmp_path, capsys):
    data_path = label_small_dataset(tmp_path)
    data_path.write_bytes(data_path.read_bytes()[:-3])
    code = run_cli(["train", "--data", str(data_path), "--out", str(tmp_path / "m.ucam"),
                    "--lr-grid", "1e-3", "--batch-grid", "8", "--epochs", "1"])
    assert code == 1
    assert "record bytes" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverged_is_runtime_error(tmp_path, capsys):
    data_path = label_small_dataset(tmp_path)
    model_path = tmp_path / "m.ucam"
    code = run_cli(["train", "--data", str(data_path), "--out", str(model_path),
                    "--lr-grid", "1e200", "--batch-grid", "8", "--epochs", "3"])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    assert not model_path.exists()


def write_tiny_config(tmp_path, learning_rate="1e-3"):
    """A two-instance npd pipeline config writing to tmp_path/tiny; returns
    the config path and out_dir."""
    out_dir = tmp_path / "tiny"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "master_seed=5\nn=5\nm=2\nkappa=2\npairs_per_level=20\nepochs=3\n"
        f"learning_rate={learning_rate}\nbatch_size=8\ninstances=2\nevals=5\ncheckpoints=5\n"
        f"out_dir={out_dir}\ndistributions=npd\n"
    )
    return cfg, out_dir


def test_pipeline_manifest_records_label_and_train_layers(tmp_path, capsys):
    cfg, out_dir = write_tiny_config(tmp_path)
    assert run_cli(["pipeline", "--config", str(cfg)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert {"label/npd", "train/npd", "generate/npd", "bench/npd"} <= set(manifest["timings_s"])
    assert "label_train/npd" not in manifest["timings_s"]
    assert sorted(manifest["train"]) == ["npd/0", "npd/1"]
    for i in range(2):
        record = manifest["train"][f"npd/{i}"]
        # 40 records, ceil(0.9 * 40) = 36 for training: 5 batches of 8 per epoch
        assert record["adam_steps"] == 3 * 5
        last = (out_dir / "models" / f"npd_{i}_trace.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "3"
        assert record["final_train_loss"] == float(last[1])
        assert record["final_test_loss"] == float(last[2])


def test_pipeline_labels_every_instance_before_training_diverges(tmp_path, capsys):
    # every dataset is written before the first model trains, so a run whose
    # first training diverges leaves both datasets and no model or manifest
    cfg, out_dir = write_tiny_config(tmp_path, learning_rate="1e200")
    assert run_cli(["pipeline", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: training diverged at epoch 1")
    assert (out_dir / "datasets" / "npd_0.ucad").exists() and (out_dir / "datasets" / "npd_1.ucad").exists()
    assert list((out_dir / "models").iterdir()) == []
    assert not (out_dir / "manifest.json").exists()


def test_train_split_outside_unit_interval_is_usage_error(tmp_path, capsys):
    # --split 1.5 used to slice from the end and train on a silent 20/20 split
    data_path = label_small_dataset(tmp_path)
    for split in ("1.5", "0"):
        code = run_cli(["train", "--data", str(data_path), "--out", str(tmp_path / "m.ucam"),
                        "--lr-grid", "1e-3", "--batch-grid", "8", "--epochs", "1", "--split", split])
        assert code == 2
        assert "split fraction must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "m.ucam").exists()


@pytest.mark.parametrize("grid", [["--lr-grid", "1e-3,1e-3", "0.001"], ["--batch-grid", "8,4,8", "8"]])
def test_train_refuses_a_repeated_grid_value(tmp_path, capsys, grid):
    # a repeated value used to train the same grid cell again
    data_path = label_small_dataset(tmp_path)
    capsys.readouterr()
    flag, text, repeated = grid
    flags = {"--lr-grid": "1e-3", "--batch-grid": "8", "--epochs": "1", flag: text}
    code = run_cli(["train", "--data", str(data_path), "--out", str(tmp_path / "m.ucam"),
                    *(part for item in flags.items() for part in item)])
    assert code == 2
    assert f"argument {flag}: repeated grid value: {repeated}\n" in capsys.readouterr().err
    assert not (tmp_path / "m.ucam").exists()


def test_list_flag_errors_print_their_reason(capsys):
    # argparse used to replace a list parser's reason with "invalid int_list value"
    code = run_cli(["rollout", "--table", "t.ucav", "--estimator", "random", "--evals", "2", "--checkpoints", " , "])
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "ucalab rollout: error: argument --checkpoints: must list at least one value"


def test_train_diverged_prints_only_the_error_line(tmp_path):
    data_path = label_small_dataset(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ucalab.cli", "train", "--data", str(data_path),
         "--out", str(tmp_path / "m.ucam"), "--lr-grid", "1e200", "--batch-grid", "8", "--epochs", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training diverged at epoch 1"), proc.stderr


def test_subcommands_reproduce_pipeline_artifacts(tmp_path, capsys):
    # each subcommand runs the same stage code as the pipeline, so the
    # manifest's seeds reproduce its table, dataset and curves byte for byte
    out_dir = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "master_seed=3\nn=5\nm=2\nkappa=2\npairs_per_level=20\nepochs=2\n"
        "learning_rate=1e-3\nbatch_size=8\ninstances=2\nevals=6\ncheckpoints=2,6\n"
        f"out_dir={out_dir}\ndistributions=npd\nmu=0\nsigma=1\n"
    )
    assert run_cli(["pipeline", "--config", str(cfg)]) == 0
    seeds = json.loads((out_dir / "manifest.json").read_text())["seeds"]

    table_path = tmp_path / "t.ucav"
    assert run_cli(["generate", "--dist", "npd", "--n", "5", "--m", "2", "--mu", "0", "--sigma", "1",
                    "--seed", str(seeds["table/npd/0"]), "--out", str(table_path)]) == 0
    assert table_path.read_bytes() == (out_dir / "tables" / "npd_0.ucav").read_bytes()

    data_path = tmp_path / "d.ucad"
    assert run_cli(["label", "--table", str(table_path), "--kappa", "2", "--pairs", "20",
                    "--seed", str(seeds["dataset/npd/0"]), "--out", str(data_path)]) == 0
    assert data_path.read_bytes() == (out_dir / "datasets" / "npd_0.ucad").read_bytes()

    bench_cfg = tmp_path / "curves.cfg"
    tables = ",".join(str(out_dir / "tables" / f"npd_{i}.ucav") for i in range(2))
    models = ",".join(str(out_dir / "models" / f"npd_{i}.ucam") for i in range(2))
    bench_cfg.write_text(
        f"tables={tables}\nmodels={models}\nestimators=current,random,neural\n"
        f"evals=6\ncheckpoints=2,6\nseed={seeds['bench/npd']}\n"
    )
    assert run_cli(["bench", "--experiment", "curves", "--config", str(bench_cfg),
                    "--out-dir", str(tmp_path / "bench")]) == 0
    assert (tmp_path / "bench" / "curves.csv").read_bytes() == (out_dir / "curves" / "curves_npd.csv").read_bytes()


def test_rollout_model_with_other_estimator_is_usage_error(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "1", "--out", str(table_path)])
    capsys.readouterr()
    for estimator in ("current", "random"):
        code = run_cli(["rollout", "--table", str(table_path), "--estimator", estimator,
                        "--model", str(tmp_path / "missing.ucam"), "--evals", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--model" in captured.err and captured.out == ""


def test_train_on_dataset_with_out_of_range_label_is_runtime_error(tmp_path, capsys):
    data_path = label_small_dataset(tmp_path)
    raw = bytearray(data_path.read_bytes())
    # the first record's labels start after the 25-byte header and its u32 mask
    labels = raw[29:34]
    element = next(j for j, b in enumerate(labels) if b != 255)
    raw[29 + element] = 7
    data_path.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run_cli(["train", "--data", str(data_path), "--out", str(tmp_path / "m.ucam"),
                    "--lr-grid", "1e-3", "--batch-grid", "8", "--epochs", "1"])
    assert code == 1
    assert f"record 0: label 7 at element {element} exceeds m=2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ("split_fracton=0.2\n", "unknown config key: split_fracton"),
        ("split_fraction=1.5\n", "split_fraction must be in (0, 1), got 1.5"),
        ("estimators=current,greedy\n", "unknown distribution or estimator: greedy"),
        ("checkpoints=10,40\n", "checkpoints must lie in 1..n_evals"),
        # an empty list used to pass the checks and fail after three stages
        ("checkpoints=\n", "config key checkpoints: must list at least one value"),
        ("estimators=\n", "config key estimators: must list at least one value"),
        ("distributions= , \n", "config key distributions: must list at least one value"),
        ("n=abc\n", "config key n: invalid literal for int() with base 10: 'abc'"),
        # each of these used to exit 2 only after creating out_dir, or after a stage
        ("n=0\n", "n must be in 1..30, got 0"),
        ("n=31\n", "n must be in 1..30, got 31"),
        ("m=0\n", "m must be at least 1, got 0"),
        ("sigma=-1\n", "sigma must be nonnegative"),
        ("instances=0\n", "instances must be at least 1, got 0"),
        ("n=5\nkappa=6\n", "level 6 out of range for n=5"),
        ("checkpoints=10,10,30\n", "checkpoints must be strictly ascending"),
        # a NaN tau gave every bundle size the TRAP bonus; a NaN learning rate failed as diverged training
        ("tau=nan\n", "tau_threshold must be finite, got nan"),
        ("learning_rate=nan\n", "learning_rate must be finite and nonnegative, got nan"),
        # a repeated distribution used to run twice, its second pass overwriting the first's files
        ("distributions=npd,trap,npd\n", "config key distributions: repeated distribution or estimator: npd"),
        ("estimators=current,current\n", "config key estimators: repeated distribution or estimator: current"),
        # 5 records split ceil(0.9 * 5) = 5 to 0; training used to refuse that after a table and dataset were written
        ("n=4\nm=2\nkappa=1\npairs_per_level=5\n",
         "split_fraction=0.1 leaves 5 train and 0 test records per dataset; both must be nonempty"),
        # a table over physical memory used to fail allocating, after out_dir and its subdirectories were made
        ("n=30\nm=1000000\n", f"needs {(1 << 30) * 10**6 * 8} bytes, more than the"),
        # m=300 used to write a table and label a dataset before the dataset writer refused it
        ("n=2\nm=256\nkappa=1\npairs_per_level=20\n", "m=256 exceeds 255, the most alternatives a label byte can hold"),
    ],
    ids=["misspelt-key", "split-fraction", "unknown-estimator", "checkpoint-beyond-evals", "empty-checkpoints",
         "empty-estimators", "empty-distributions", "unparsable-value", "n-zero", "n-too-large", "m-zero",
         "negative-sigma", "no-instances", "kappa-beyond-n", "repeated-checkpoint", "nan-tau", "nan-learning-rate",
         "repeated-distribution", "repeated-estimator", "empty-test-split", "table-over-memory", "m-over-label-byte"],
)
def test_pipeline_refuses_bad_config_before_the_first_stage(tmp_path, capsys, extra, message):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(pipeline_config(out_dir, extra))
    assert run_cli(["pipeline", "--config", str(cfg)]) == 2
    assert not out_dir.exists()
    assert message in capsys.readouterr().err


def test_config_refuses_a_repeated_key_by_name_and_line(tmp_path, capsys):
    # the later line used to overwrite the earlier one silently
    out_dir = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PIPELINE_CONFIG.format(out_dir=out_dir) + "n=12\n")
    assert run_cli(["pipeline", "--config", str(cfg)]) == 2
    assert "line 16: repeated config key n" in capsys.readouterr().err
    assert not out_dir.exists()
    cfg.write_text(f"table={tmp_path / 't.ucav'}\nsamples=100\n\n# again\nsamples=200\n")
    assert run_cli(["bench", "--experiment", "histogram", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "line 5: repeated config key samples" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_refuses_labeling_over_budget_before_the_first_stage(tmp_path, capsys):
    # the budget used to be checked only when labeling, after a table was written
    out_dir = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PIPELINE_CONFIG.format(out_dir=out_dir) + "node_budget=5\n")
    assert run_cli(["pipeline", "--config", str(cfg)]) == 1
    assert not out_dir.exists()
    assert "budget is 5 (level with 1 unassigned)" in capsys.readouterr().err


def test_generate_refuses_non_finite_tau(tmp_path, capsys):
    # `s < nan` is false for every size, so a NaN tau gave every bundle the bonus
    out = tmp_path / "trap.ucav"
    code = run_cli(["generate", "--dist", "trap", "--n", "4", "--m", "2", "--seed", "1",
                    "--tau", "nan", "--out", str(out)])
    assert code == 2
    assert "tau_threshold must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_table_over_physical_memory_before_allocating(tmp_path, capsys):
    # n=30, m=10 used to ask numpy for 80 GiB and end in a MemoryError traceback
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    out = tmp_path / "big.ucav"
    code = run_cli(["generate", "--dist", "npd", "--n", "30", "--m", "1000000", "--seed", "1", "--out", str(out)])
    assert code == 2
    message = f"needs {(1 << 30) * 10**6 * 8} bytes, more than the {physical} bytes of physical memory"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_a_search_over_physical_memory(tmp_path, capsys):
    # n=1, m=2^20 used to end in numpy's "Unable to allocate 8.00 TiB" traceback and exit 1
    table_path = tmp_path / "wide.ucav"
    ValueTable(1, 1 << 20, np.zeros((2, 1 << 20))).save(table_path)
    assert run_cli(["solve", "--table", str(table_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: exact search at depth 1, branching 1048576 needs \d+ bytes, more than the \d+ "
                        r"bytes of physical memory\n", captured.err)


def test_pipeline_refuses_an_empty_out_dir_before_writing(tmp_path, capsys, monkeypatch):
    # an empty out_dir used to write the whole run into the current directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(pipeline_config(""))
    assert run_cli(["pipeline", "--config", str(cfg)]) == 2
    assert "config key out_dir: must not be empty" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["p.cfg"]


@pytest.mark.parametrize("argv", [
    ["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "1", "--out", ""],
    ["solve", "--table", ""],
    ["label", "--table", "t.ucav", "--kappa", "1", "--pairs", "1", "--seed", "1", "--out", ""],
    ["train", "--data", "", "--out", "m.ucam"],
    ["train", "--data", "d.ucad", "--out", "m.ucam", "--trace", ""],
    ["rollout", "--table", "t.ucav", "--estimator", "neural", "--model", "", "--evals", "1"],
    ["bench", "--experiment", "probability", "--config", "", "--out-dir", "out"],
    ["bench", "--experiment", "probability", "--config", "b.cfg", "--out-dir", ""],
    ["pipeline", "--config", ""],
], ids=["out", "table", "label-out", "data", "trace", "model", "config", "out-dir", "pipeline-config"])
def test_every_path_flag_refuses_an_empty_value(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    flag = argv[argv.index("") - 1]
    assert f"argument {flag}: must not be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rollout_refuses_repeated_checkpoint(tmp_path, capsys):
    table_path = tmp_path / "t.ucav"
    run_cli(["generate", "--dist", "npd", "--n", "4", "--m", "2", "--seed", "1", "--out", str(table_path)])
    capsys.readouterr()
    code = run_cli(["rollout", "--table", str(table_path), "--estimator", "current", "--evals", "5",
                    "--checkpoints", "1,1,5"])
    assert code == 2
    captured = capsys.readouterr()
    assert "checkpoints must be strictly ascending" in captured.err and captured.out == ""


def test_pipeline_manifest_records_split_seeds(tmp_path, capsys):
    out_dir = tmp_path / "tiny"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "master_seed=5\nn=4\nm=2\nkappa=1\npairs_per_level=10\nepochs=1\n"
        "learning_rate=1e-3\nbatch_size=8\ninstances=1\nevals=2\ncheckpoints=2\n"
        f"out_dir={out_dir}\ndistributions=npd\n"
    )
    assert run_cli(["pipeline", "--config", str(cfg)]) == 0
    seeds = json.loads((out_dir / "manifest.json").read_text())["seeds"]
    assert seeds["split/npd/0"] == derive_seed(5, "split/npd/0")
