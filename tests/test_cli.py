import json
import subprocess
import sys

import numpy as np
import pytest

from ucalab.cli import main, read_config
from ucalab.core import ValueTable
from ucalab.dataset import load_dataset
from ucalab.neural import MlpModel


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


def test_read_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n\nkey = value\nn=10\n")
    parsed = read_config(cfg)
    assert parsed == {"key": "value", "n": "10"}
    cfg.write_text("not a pair\n")
    with pytest.raises(ValueError, match="key=value"):
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
    # the node budget admits depth-2 labeling (13 nodes per record) but not
    # the depth-12 exact solve, mirroring full-scale runs
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


def test_pipeline_manifest_records_label_and_train_layers(tmp_path, capsys):
    out_dir = tmp_path / "tiny"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "master_seed=5\nn=5\nm=2\nkappa=2\npairs_per_level=20\nepochs=3\n"
        "learning_rate=1e-3\nbatch_size=8\ninstances=2\nevals=5\ncheckpoints=5\n"
        f"out_dir={out_dir}\ndistributions=npd\n"
    )
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


def test_train_split_outside_unit_interval_is_usage_error(tmp_path, capsys):
    # --split 1.5 used to slice from the end and train on a silent 20/20 split
    data_path = label_small_dataset(tmp_path)
    for split in ("1.5", "0"):
        code = run_cli(["train", "--data", str(data_path), "--out", str(tmp_path / "m.ucam"),
                        "--lr-grid", "1e-3", "--batch-grid", "8", "--epochs", "1", "--split", split])
        assert code == 2
        assert "split fraction must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "m.ucam").exists()


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
    ],
    ids=["misspelt-key", "split-fraction", "unknown-estimator", "checkpoint-beyond-evals"],
)
def test_pipeline_refuses_bad_config_before_the_first_stage(tmp_path, capsys, extra, message):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    # a later line overrides an earlier one, so `extra` replaces any default
    cfg.write_text(PIPELINE_CONFIG.format(out_dir=out_dir) + extra)
    assert run_cli(["pipeline", "--config", str(cfg)]) == 2
    assert not out_dir.exists()
    assert message in capsys.readouterr().err
