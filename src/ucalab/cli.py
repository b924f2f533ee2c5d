"""Command-line front end: generate, solve, label, train, rollout, bench,
and a pipeline command that chains them from one config file.

Exit codes: 0 ok, 1 runtime error (budget, I/O, a truncated or corrupt
file, diverged training), 2 usage or config error.
Stage seeds are derived from the master seed by hashing (master, stage
label), so reruns with the same config reproduce every artifact byte for
byte and changing one stage never shifts another stage's draws.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    benchmark_curves,
    csv_line,
    estimate_positive_probability,
    prediction_error_report,
    value_histogram,
    write_csv,
    write_curves_report,
    write_histogram,
    write_prediction_report,
)
from .core import FormatError, ProblemSpec, ValueTable
from .dataset import DatasetConfig, build_dataset, load_dataset, save_dataset, split_dataset
from .exact import BudgetExceededError, DEFAULT_NODE_BUDGET, solve_exact
from .neural import MlpModel, TrainConfig, TrainingDivergedError, grid_search, train
from .search import ESTIMATOR_KINDS, Estimator, best_of_n, checked_checkpoints
from .seeding import derive_seed
from .valuegen import NpdParams, TrapParams, generate_npd, generate_trap


class ConfigError(ValueError):
    pass


DISTRIBUTIONS = ("npd", "trap")
# Distribution parameters shared by `generate`'s flags and the pipeline's
# config keys; a tau of None means n/2.
DIST_DEFAULTS = {"mu": 1.0, "sigma": 0.1, "delta": 0.1, "tau": None, "eps": 0.1}
# Every key a pipeline config may set: the required keys, then the optional ones.
PIPELINE_KEYS = (
    "master_seed", "n", "m", "kappa", "pairs_per_level", "epochs", "learning_rate", "batch_size",
    "instances", "evals", "checkpoints", "out_dir",
    "split_fraction", "node_budget", "distributions", "estimators", *DIST_DEFAULTS,
)
# Every key each bench experiment's config may set: the required keys, then the optional ones.
BENCH_KEYS = {
    "probability": ("table", "samples", "seed"),
    "histogram": ("table", "samples", "bins", "seed"),
    "prediction": ("table", "model", "levels", "samples_per_level", "seed", "node_budget"),
    "curves": ("tables", "estimators", "evals", "checkpoints", "models", "seed", "node_budget"),
}


def _parse_list(text: str, kind=str) -> list:
    """Comma-separated values; blank entries are skipped."""
    return [kind(part.strip()) for part in text.split(",") if part.strip()]


def _generate_table(dist: str, spec: ProblemSpec, params) -> ValueTable:
    if dist == "npd":
        return generate_npd(spec, NpdParams(mu=params["mu"], sigma=params["sigma"]))
    if dist == "trap":
        tau = params["tau"]
        if tau is None:
            tau = spec.n / 2
        trap = TrapParams(sigma=params["sigma"], delta=params["delta"], tau_threshold=tau, epsilon=params["eps"])
        return generate_trap(spec, trap)
    raise ConfigError(f"unknown distribution {dist!r}")


def _label(table: ValueTable, cfg: DatasetConfig, budget: int, path) -> list:
    """Label a dataset of `table` exactly and save it to `path`."""
    pairs = build_dataset(ProblemSpec(table.n, table.m, table.seed), table, cfg, node_budget=budget)
    save_dataset(path, pairs, table.n, table.m, cfg.kappa)
    return pairs


def _fit(pairs, n, m, split_fraction, split_seed, lr_grid, batch_grid, epochs, train_seed, model_path, trace_path):
    """Split `pairs`, train one model (grid search when a grid has several
    values), and save the model and its trace.

    Returns the chosen config, the model, the trace and the Adam step count.
    """
    train_pairs, test_pairs = split_dataset(pairs, split_fraction, np.random.default_rng(split_seed))
    cfg = TrainConfig(lr_grid[0], batch_grid[0], epochs, seed=train_seed)
    if len(lr_grid) == 1 and len(batch_grid) == 1:
        model, trace = train(train_pairs, test_pairs, cfg, n, m)
    else:
        cfg, model, trace = grid_search(train_pairs, test_pairs, lr_grid, batch_grid, cfg, n, m)
    model.save(model_path)
    write_csv(trace_path, "epoch,train_loss,test_loss", trace)
    return cfg, model, trace, cfg.epochs * -(-len(train_pairs) // cfg.batch_size)


def _estimators(names, models, count: int) -> dict[str, list[Estimator]]:
    """One Estimator per table for each named heuristic; `models` holds the
    neural heuristic's network for each table."""
    estimators: dict[str, list[Estimator]] = {}
    for name in names:
        if name == "neural":
            estimators[name] = [Estimator.neural(model) for model in models]
        else:
            estimators[name] = [Estimator(name)] * count
    return estimators


def _curves(tables, estimators, evals, checkpoints, seed, budget, csv_path: Path, dist: str = ""):
    """Best-of-N curves over `tables`, written to csv_path and its .svg twin."""
    report = benchmark_curves(tables, estimators, evals, checkpoints, seed, node_budget=budget)
    prefix, title = (f"{dist}: ", f"Best solution value ({dist})") if dist else ("", "Best solution value")
    if report.optimum_mean is None:
        print(f"{prefix}optimum unavailable at this scale")
    write_curves_report(report, csv_path, csv_path.with_suffix(".svg"), title=title)
    return report


def cmd_generate(args) -> int:
    table = _generate_table(args.dist, ProblemSpec(args.n, args.m, args.seed), vars(args))
    table.save(args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args) -> int:
    table = ValueTable.load(args.table)
    assignment, value = solve_exact(table, node_budget=args.budget)
    print(csv_line([value, *assignment.labels]))
    return 0


def cmd_label(args) -> int:
    cfg = DatasetConfig(kappa=args.kappa, pairs_per_level=args.pairs, seed=args.seed)
    pairs = _label(ValueTable.load(args.table), cfg, args.budget, args.out)
    print(f"wrote {args.out} ({len(pairs)} records)")
    return 0


def cmd_train(args) -> int:
    pairs, n, m, _ = load_dataset(args.data)
    trace_path = args.trace or Path(args.out).parent / "training_trace.csv"
    chosen, _, trace, _ = _fit(
        pairs, n, m, args.split, derive_seed(args.seed, "split"),
        args.lr_grid, args.batch_grid, args.epochs, derive_seed(args.seed, "train"), args.out, trace_path,
    )
    print(
        f"wrote {args.out} (lr={chosen.learning_rate:g}, batch={chosen.batch_size}, "
        f"final test loss={trace[-1][2]:.6g})"
    )
    return 0


def cmd_rollout(args) -> int:
    if (args.estimator == "neural") != bool(args.model):
        raise ConfigError("--model is required for the neural estimator and refused for the others")
    table = ValueTable.load(args.table)
    models = [MlpModel.load(args.model)] if args.estimator == "neural" else []
    estimator = _estimators([args.estimator], models, 1)[args.estimator][0]
    checkpoints = args.checkpoints if args.checkpoints else [args.evals]
    result = best_of_n(table, estimator, args.evals, checkpoints, np.random.default_rng(args.seed))
    print("checkpoint,best_value")
    for row in result.checkpoints:
        print(csv_line(row))
    return 0


def read_config(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored."""
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


def _check_keys(config: dict[str, str], accepted) -> None:
    unknown = [key for key in config if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown config key: {', '.join(unknown)}")


def _require(config: dict[str, str], key: str) -> str:
    if key not in config:
        raise ConfigError(f"missing config key: {key}")
    return config[key]


def _config_dist_params(config: dict[str, str]) -> dict:
    return {key: float(config[key]) if key in config else default for key, default in DIST_DEFAULTS.items()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_bench(args) -> int:
    config = read_config(args.config)
    experiment = args.experiment
    _check_keys(config, BENCH_KEYS[experiment])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(config.get("seed", "0"))
    budget = int(config.get("node_budget", str(DEFAULT_NODE_BUDGET)))

    if experiment == "probability":
        table = ValueTable.load(_require(config, "table"))
        samples = int(_require(config, "samples"))
        prob, positives = estimate_positive_probability(table, samples, np.random.default_rng(seed))
        write_csv(out_dir / "probability.csv", "samples,positives,probability", [(samples, positives, prob)])
        print(f"P(V>0) = {prob:.6g} ({positives}/{samples})")
        return 0

    if experiment == "histogram":
        table = ValueTable.load(_require(config, "table"))
        samples = int(_require(config, "samples"))
        bins = int(config.get("bins", "100"))
        edges, counts = value_histogram(table, samples, bins, np.random.default_rng(seed))
        write_histogram(out_dir / "histogram.csv", out_dir / "histogram.svg", edges, counts)
        print(f"wrote {out_dir / 'histogram.csv'}")
        return 0

    if experiment == "prediction":
        table = ValueTable.load(_require(config, "table"))
        model = MlpModel.load(_require(config, "model"))
        levels = _parse_list(_require(config, "levels"), int)
        samples = int(_require(config, "samples_per_level"))
        report = prediction_error_report(
            model, table, levels, samples, np.random.default_rng(seed), node_budget=budget
        )
        paths = write_prediction_report(report, out_dir)
        print(f"wrote {', '.join(str(p) for p in paths)}")
        return 0

    # curves
    tables = [ValueTable.load(p) for p in _parse_list(_require(config, "tables"))]
    names = _parse_list(_require(config, "estimators"))
    models = []
    if "neural" in names:
        model_paths = _parse_list(_require(config, "models"))
        if len(model_paths) != len(tables):
            raise ConfigError("models must list one model per table")
        models = [MlpModel.load(p) for p in model_paths]
    estimators = _estimators(names, models, len(tables))
    evals = int(_require(config, "evals"))
    checkpoints = _parse_list(_require(config, "checkpoints"), int)
    _curves(tables, estimators, evals, checkpoints, seed, budget, out_dir / "curves.csv")
    print(f"wrote {out_dir / 'curves.csv'}")
    return 0


def run_pipeline(config: dict[str, str]) -> dict:
    """generate -> label -> train -> benchmark curves, with derived seeds.

    Returns the manifest; artifacts and manifest.json land in out_dir.
    The whole config is checked before the first stage: a missing required
    key or an unknown key raises ConfigError naming the key, and so does a
    value out of range.
    """
    _check_keys(config, PIPELINE_KEYS)
    master = int(_require(config, "master_seed"))
    n = int(_require(config, "n"))
    m = int(_require(config, "m"))
    kappa = int(_require(config, "kappa"))
    pairs_per_level = int(_require(config, "pairs_per_level"))
    epochs = int(_require(config, "epochs"))
    learning_rate = float(_require(config, "learning_rate"))
    batch_size = int(_require(config, "batch_size"))
    instances = int(_require(config, "instances"))
    evals = int(_require(config, "evals"))
    checkpoints = _parse_list(_require(config, "checkpoints"), int)
    out_dir = Path(_require(config, "out_dir"))
    split_fraction = float(config.get("split_fraction", "0.1"))
    budget = int(config.get("node_budget", str(DEFAULT_NODE_BUDGET)))
    distributions = _parse_list(config.get("distributions", "npd,trap"))
    estimator_names = _parse_list(config.get("estimators", "current,random,neural"))
    dist_params = _config_dist_params(config)
    if not 0.0 < split_fraction < 1.0:
        raise ConfigError(f"split_fraction must be in (0, 1), got {split_fraction}")
    unknown_names = [name for name in distributions if name not in DISTRIBUTIONS]
    unknown_names += [name for name in estimator_names if name not in ESTIMATOR_KINDS]
    if unknown_names:
        raise ConfigError(f"unknown distribution or estimator: {', '.join(unknown_names)}")
    # Constructing the stage settings refuses out-of-range values before any stage runs.
    dataset_cfg = DatasetConfig(kappa, pairs_per_level)
    TrainConfig(learning_rate, batch_size, epochs)
    checked_checkpoints(evals, checkpoints)

    out_dir.mkdir(parents=True, exist_ok=True)
    for sub in ("tables", "datasets", "models", "curves"):
        (out_dir / sub).mkdir(exist_ok=True)

    manifest: dict = {
        "config": dict(config), "seeds": {}, "files": {}, "timings_s": {}, "train": {}, "optimum": {}
    }

    def stage_seed(label: str) -> int:
        manifest["seeds"][label] = seed = derive_seed(master, label)
        return seed

    def note_file(path: Path) -> None:
        manifest["files"][str(path.relative_to(out_dir))] = _sha256(path)

    for dist in distributions:
        t0 = time.perf_counter()
        tables: list[ValueTable] = []
        for i in range(instances):
            table = _generate_table(dist, ProblemSpec(n, m, stage_seed(f"table/{dist}/{i}")), dist_params)
            path = out_dir / "tables" / f"{dist}_{i}.ucav"
            table.save(path)
            note_file(path)
            tables.append(table)
        manifest["timings_s"][f"generate/{dist}"] = round(time.perf_counter() - t0, 3)

        models: list[MlpModel] = []
        if "neural" in estimator_names:
            label_s = train_s = 0.0
            for i, table in enumerate(tables):
                t0 = time.perf_counter()
                cfg = replace(dataset_cfg, seed=stage_seed(f"dataset/{dist}/{i}"))
                ds_path = out_dir / "datasets" / f"{dist}_{i}.ucad"
                pairs = _label(table, cfg, budget, ds_path)
                note_file(ds_path)
                label_s += time.perf_counter() - t0

                t0 = time.perf_counter()
                model_path = out_dir / "models" / f"{dist}_{i}.ucam"
                trace_path = out_dir / "models" / f"{dist}_{i}_trace.csv"
                _, model, trace, steps = _fit(
                    pairs, n, m, split_fraction, derive_seed(master, f"split/{dist}/{i}"),
                    [learning_rate], [batch_size], epochs, stage_seed(f"train/{dist}/{i}"), model_path, trace_path,
                )
                manifest["train"][f"{dist}/{i}"] = {
                    "adam_steps": steps,
                    "final_train_loss": trace[-1][1],
                    "final_test_loss": trace[-1][2],
                }
                note_file(model_path)
                note_file(trace_path)
                models.append(model)
                train_s += time.perf_counter() - t0
            manifest["timings_s"][f"label/{dist}"] = round(label_s, 3)
            manifest["timings_s"][f"train/{dist}"] = round(train_s, 3)

        t0 = time.perf_counter()
        estimators = _estimators(estimator_names, models, instances)
        csv_path = out_dir / "curves" / f"curves_{dist}.csv"
        seed = stage_seed(f"bench/{dist}")
        report = _curves(tables, estimators, evals, checkpoints, seed, budget, csv_path, dist)
        manifest["optimum"][dist] = report.optimum_mean
        note_file(csv_path)
        note_file(csv_path.with_suffix(".svg"))
        manifest["timings_s"][f"bench/{dist}"] = round(time.perf_counter() - t0, 3)

    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"pipeline complete: {manifest_path}")
    return manifest


def cmd_pipeline(args) -> int:
    run_pipeline(read_config(args.config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucalab",
        description="Utilitarian combinatorial assignment laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a value table")
    p.add_argument("--dist", choices=DISTRIBUTIONS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    for key, default in DIST_DEFAULTS.items():
        p.add_argument(f"--{key}", type=float, default=default,
                       help="trap threshold (default n/2)" if key == "tau" else None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="exact optimum by exhaustive search")
    p.add_argument("--table", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("label", help="build an exactly labeled dataset")
    p.add_argument("--table", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the value-to-go network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr-grid", type=lambda text: _parse_list(text, float), default=[1e-4, 3e-4, 1e-3, 3e-3])
    p.add_argument("--batch-grid", type=lambda text: _parse_list(text, int), default=[32, 64, 128])
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--split", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="trace CSV path (default training_trace.csv next to model)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rollout", help="best-of-N greedy rollouts")
    p.add_argument("--table", required=True)
    p.add_argument("--estimator", choices=ESTIMATOR_KINDS, required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--evals", type=int, required=True)
    p.add_argument("--checkpoints", type=lambda text: _parse_list(text, int), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("bench", help="run one benchmark experiment from a config file")
    p.add_argument("--experiment", choices=tuple(BENCH_KEYS), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("pipeline", help="generate, label, train, and benchmark from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, FormatError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
