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
from pathlib import Path

import numpy as np

from .bench import (
    benchmark_curves,
    estimate_positive_probability,
    prediction_error_report,
    value_histogram,
    write_curves_report,
    write_histogram,
    write_prediction_report,
    write_probability_csv,
)
from .core import FormatError, ProblemSpec, ValueTable
from .dataset import DatasetConfig, build_dataset, load_dataset, save_dataset, split_dataset
from .exact import BudgetExceededError, DEFAULT_NODE_BUDGET, solve_exact
from .neural import MlpModel, TrainConfig, TrainingDivergedError, grid_search, train
from .search import Estimator, best_of_n
from .seeding import derive_seed
from .valuegen import NpdParams, TrapParams, generate_npd, generate_trap


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _generate_table(dist: str, spec: ProblemSpec, args_like) -> ValueTable:
    if dist == "npd":
        return generate_npd(spec, NpdParams(mu=args_like["mu"], sigma=args_like["sigma"]))
    if dist == "trap":
        tau = args_like["tau"]
        if tau is None:
            tau = spec.n / 2
        params = TrapParams(
            sigma=args_like["sigma"],
            delta=args_like["delta"],
            tau_threshold=tau,
            epsilon=args_like["eps"],
        )
        return generate_trap(spec, params)
    raise ConfigError(f"unknown distribution {dist!r}")


def cmd_generate(args) -> int:
    spec = ProblemSpec(args.n, args.m, args.seed)
    table = _generate_table(
        args.dist,
        spec,
        {"mu": args.mu, "sigma": args.sigma, "delta": args.delta, "tau": args.tau, "eps": args.eps},
    )
    table.save(args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args) -> int:
    table = ValueTable.load(args.table)
    assignment, value = solve_exact(table, node_budget=args.budget)
    print(",".join([repr(value)] + [str(lab) for lab in assignment.labels]))
    return 0


def cmd_label(args) -> int:
    table = ValueTable.load(args.table)
    spec = ProblemSpec(table.n, table.m, table.seed)
    cfg = DatasetConfig(kappa=args.kappa, pairs_per_level=args.pairs, seed=args.seed)
    pairs = build_dataset(spec, table, cfg, node_budget=args.budget)
    save_dataset(args.out, pairs, table.n, table.m, args.kappa)
    print(f"wrote {args.out} ({len(pairs)} records)")
    return 0


def _write_trace(path: Path, trace) -> None:
    lines = ["epoch,train_loss,test_loss"]
    for epoch, train_loss, test_loss in trace:
        lines.append(f"{epoch},{repr(train_loss)},{repr(test_loss)}")
    path.write_text("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    pairs, n, m, _ = load_dataset(args.data)
    split_rng = np.random.default_rng(derive_seed(args.seed, "split"))
    train_pairs, test_pairs = split_dataset(pairs, args.split, split_rng)
    base = TrainConfig(
        learning_rate=args.lr_grid[0],
        batch_size=args.batch_grid[0],
        epochs=args.epochs,
        seed=derive_seed(args.seed, "train"),
    )
    if len(args.lr_grid) == 1 and len(args.batch_grid) == 1:
        model, trace = train(train_pairs, test_pairs, base, n, m)
        chosen = base
    else:
        chosen, model, trace = grid_search(
            train_pairs, test_pairs, args.lr_grid, args.batch_grid, base, n, m
        )
    model.save(args.out)
    trace_path = Path(args.trace) if args.trace else Path(args.out).parent / "training_trace.csv"
    _write_trace(trace_path, trace)
    print(
        f"wrote {args.out} (lr={chosen.learning_rate:g}, batch={chosen.batch_size}, "
        f"final test loss={trace[-1][2]:.6g})"
    )
    return 0


def cmd_rollout(args) -> int:
    table = ValueTable.load(args.table)
    if args.estimator == "neural":
        if not args.model:
            raise ConfigError("--model is required for the neural estimator")
        estimator = Estimator.neural(MlpModel.load(args.model))
    elif args.estimator == "current":
        estimator = Estimator.current_value()
    else:
        estimator = Estimator.random()
    rng = np.random.default_rng(args.seed)
    checkpoints = args.checkpoints if args.checkpoints else [args.evals]
    result = best_of_n(table, estimator, args.evals, checkpoints, rng)
    print("checkpoint,best_value")
    for evaluation, value in result.checkpoints:
        print(f"{evaluation},{repr(value)}")
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


def _require(config: dict[str, str], key: str) -> str:
    if key not in config:
        raise ConfigError(f"missing config key: {key}")
    return config[key]


def _config_dist_params(config: dict[str, str]) -> dict:
    return {
        "mu": float(config.get("mu", "1.0")),
        "sigma": float(config.get("sigma", "0.1")),
        "delta": float(config.get("delta", "0.1")),
        "tau": float(config["tau"]) if "tau" in config else None,
        "eps": float(config.get("eps", "0.1")),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_bench(args) -> int:
    config = read_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment = args.experiment
    seed = int(config.get("seed", "0"))
    budget = int(config.get("node_budget", str(DEFAULT_NODE_BUDGET)))

    if experiment == "probability":
        table = ValueTable.load(_require(config, "table"))
        samples = int(_require(config, "samples"))
        prob, positives = estimate_positive_probability(table, samples, np.random.default_rng(seed))
        write_probability_csv(out_dir / "probability.csv", samples, positives, prob)
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
        levels = _parse_int_list(_require(config, "levels"))
        samples = int(_require(config, "samples_per_level"))
        report = prediction_error_report(
            model, table, levels, samples, np.random.default_rng(seed), node_budget=budget
        )
        paths = write_prediction_report(report, out_dir)
        print(f"wrote {', '.join(str(p) for p in paths)}")
        return 0

    if experiment == "curves":
        table_paths = [p for p in _require(config, "tables").split(",") if p.strip()]
        tables = [ValueTable.load(p.strip()) for p in table_paths]
        names = [s.strip() for s in _require(config, "estimators").split(",") if s.strip()]
        estimators: dict[str, list[Estimator]] = {}
        for name in names:
            if name == "neural":
                model_paths = [p for p in _require(config, "models").split(",") if p.strip()]
                if len(model_paths) != len(tables):
                    raise ConfigError("models must list one model per table")
                estimators[name] = [Estimator.neural(MlpModel.load(p.strip())) for p in model_paths]
            elif name == "current":
                estimators[name] = [Estimator.current_value()] * len(tables)
            elif name == "random":
                estimators[name] = [Estimator.random()] * len(tables)
            else:
                raise ConfigError(f"unknown estimator {name!r}")
        evals = int(_require(config, "evals"))
        checkpoints = _parse_int_list(_require(config, "checkpoints"))
        report = benchmark_curves(tables, estimators, evals, checkpoints, seed, node_budget=budget)
        if report.optimum_mean is None:
            print("optimum unavailable at this scale")
        write_curves_report(report, out_dir / "curves.csv", out_dir / "curves.svg")
        print(f"wrote {out_dir / 'curves.csv'}")
        return 0

    raise ConfigError(f"unknown experiment {experiment!r}")


def run_pipeline(config: dict[str, str]) -> dict:
    """generate -> label -> train -> benchmark curves, with derived seeds.

    Returns the manifest; artifacts and manifest.json land in out_dir.
    Any missing required key raises ConfigError naming the key.
    """
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
    checkpoints = _parse_int_list(_require(config, "checkpoints"))
    out_dir = Path(_require(config, "out_dir"))
    split_fraction = float(config.get("split_fraction", "0.1"))
    budget = int(config.get("node_budget", str(DEFAULT_NODE_BUDGET)))
    distributions = [s.strip() for s in config.get("distributions", "npd,trap").split(",") if s.strip()]
    estimator_names = [
        s.strip() for s in config.get("estimators", "current,random,neural").split(",") if s.strip()
    ]
    dist_params = _config_dist_params(config)

    out_dir.mkdir(parents=True, exist_ok=True)
    for sub in ("tables", "datasets", "models", "curves"):
        (out_dir / sub).mkdir(exist_ok=True)

    manifest: dict = {
        "config": dict(config), "seeds": {}, "files": {}, "timings_s": {}, "train": {}, "optimum": {}
    }

    def note_file(path: Path) -> None:
        manifest["files"][str(path.relative_to(out_dir))] = _sha256(path)

    need_models = "neural" in estimator_names
    for dist in distributions:
        t0 = time.perf_counter()
        tables: list[ValueTable] = []
        for i in range(instances):
            seed = derive_seed(master, f"table/{dist}/{i}")
            manifest["seeds"][f"table/{dist}/{i}"] = seed
            table = _generate_table(dist, ProblemSpec(n, m, seed), dist_params)
            path = out_dir / "tables" / f"{dist}_{i}.ucav"
            table.save(path)
            note_file(path)
            tables.append(table)
        manifest["timings_s"][f"generate/{dist}"] = round(time.perf_counter() - t0, 3)

        models: list[MlpModel] = []
        if need_models:
            label_s = train_s = 0.0
            for i, table in enumerate(tables):
                t0 = time.perf_counter()
                ds_seed = derive_seed(master, f"dataset/{dist}/{i}")
                manifest["seeds"][f"dataset/{dist}/{i}"] = ds_seed
                cfg = DatasetConfig(
                    kappa=kappa,
                    pairs_per_level=pairs_per_level,
                    split_fraction=split_fraction,
                    seed=ds_seed,
                )
                pairs = build_dataset(ProblemSpec(n, m, table.seed), table, cfg, node_budget=budget)
                ds_path = out_dir / "datasets" / f"{dist}_{i}.ucad"
                save_dataset(ds_path, pairs, n, m, kappa)
                note_file(ds_path)
                label_s += time.perf_counter() - t0

                t0 = time.perf_counter()
                split_rng = np.random.default_rng(derive_seed(master, f"split/{dist}/{i}"))
                train_pairs, test_pairs = split_dataset(pairs, split_fraction, split_rng)
                train_seed = derive_seed(master, f"train/{dist}/{i}")
                manifest["seeds"][f"train/{dist}/{i}"] = train_seed
                tcfg = TrainConfig(
                    learning_rate=learning_rate,
                    batch_size=batch_size,
                    epochs=epochs,
                    seed=train_seed,
                )
                model, trace = train(train_pairs, test_pairs, tcfg, n, m)
                manifest["train"][f"{dist}/{i}"] = {
                    "adam_steps": epochs * -(-len(train_pairs) // batch_size),
                    "final_train_loss": trace[-1][1],
                    "final_test_loss": trace[-1][2],
                }
                model_path = out_dir / "models" / f"{dist}_{i}.ucam"
                model.save(model_path)
                note_file(model_path)
                trace_path = out_dir / "models" / f"{dist}_{i}_trace.csv"
                _write_trace(trace_path, trace)
                note_file(trace_path)
                models.append(model)
                train_s += time.perf_counter() - t0
            manifest["timings_s"][f"label/{dist}"] = round(label_s, 3)
            manifest["timings_s"][f"train/{dist}"] = round(train_s, 3)

        t0 = time.perf_counter()
        estimators: dict[str, list[Estimator]] = {}
        for name in estimator_names:
            if name == "current":
                estimators[name] = [Estimator.current_value()] * instances
            elif name == "random":
                estimators[name] = [Estimator.random()] * instances
            elif name == "neural":
                estimators[name] = [Estimator.neural(mdl) for mdl in models]
            else:
                raise ConfigError(f"unknown estimator {name!r}")
        bench_seed = derive_seed(master, f"bench/{dist}")
        manifest["seeds"][f"bench/{dist}"] = bench_seed
        report = benchmark_curves(
            tables, estimators, evals, checkpoints, bench_seed, node_budget=budget
        )
        if report.optimum_mean is None:
            print(f"{dist}: optimum unavailable at this scale")
        manifest["optimum"][dist] = report.optimum_mean
        csv_path = out_dir / "curves" / f"curves_{dist}.csv"
        svg_path = out_dir / "curves" / f"curves_{dist}.svg"
        write_curves_report(report, csv_path, svg_path, title=f"Best solution value ({dist})")
        note_file(csv_path)
        note_file(svg_path)
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
    p.add_argument("--dist", choices=("npd", "trap"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=None, help="trap threshold (default n/2)")
    p.add_argument("--eps", type=float, default=0.1)
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
    p.add_argument("--lr-grid", type=_parse_float_list, default=[1e-4, 3e-4, 1e-3, 3e-3])
    p.add_argument("--batch-grid", type=_parse_int_list, default=[32, 64, 128])
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--split", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="trace CSV path (default training_trace.csv next to model)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rollout", help="best-of-N greedy rollouts")
    p.add_argument("--table", required=True)
    p.add_argument("--estimator", choices=("current", "random", "neural"), required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--evals", type=int, required=True)
    p.add_argument("--checkpoints", type=_parse_int_list, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("bench", help="run one benchmark experiment from a config file")
    p.add_argument("--experiment", choices=("probability", "histogram", "prediction", "curves"), required=True)
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
