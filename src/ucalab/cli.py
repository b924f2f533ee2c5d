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
from contextlib import contextmanager
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
from .dataset import (
    DatasetConfig, build_dataset, check_levels, check_storable, load_dataset, save_dataset, split_dataset, split_sizes,
)
from .exact import BudgetExceededError, DEFAULT_NODE_BUDGET, solve_exact
from .neural import MlpModel, TrainConfig, TrainingDivergedError, check_fits, grid_search, predict_value_to_go, train
from .search import ESTIMATOR_KINDS, Estimator, best_of_n, checked_checkpoints
from .seeding import derive_seed
from .valuegen import NpdParams, TrapParams, generate_npd, generate_trap


class ConfigError(ValueError):
    pass


DISTRIBUTIONS = ("npd", "trap")
# Distribution parameters shared by `generate`'s flags and the pipeline's
# config keys; a tau of None means n/2.
DIST_DEFAULTS = {"mu": 1.0, "sigma": 0.1, "delta": 0.1, "tau": None, "eps": 0.1}
SPLIT_FRACTION = 0.1  # default share of each dataset held out for testing


def _list_parser(kind, names=None, unique=None):
    """A parser of comma-separated values, skipping blank entries and
    refusing an empty list, any value outside `names` when given and, when
    `unique` names what the values are, any value listed twice. Refusals
    are ArgumentTypeErrors, whose message argparse shows as it is."""

    def parse(text: str) -> tuple:
        values = tuple(kind(part.strip()) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError("must list at least one value")
        if names is not None:
            unknown = [value for value in values if value not in names]
            if unknown:
                raise argparse.ArgumentTypeError(f"unknown {unique}: {', '.join(unknown)}")
        if unique is not None:
            repeated = sorted({value for i, value in enumerate(values) if value in values[:i]})
            if repeated:
                raise argparse.ArgumentTypeError(f"repeated {unique}: {', '.join(map(str, repeated))}")
        return values

    parse.__name__ = f"{kind.__name__}_list"  # argparse names the type in its errors
    return parse


def _path(text: str) -> str:
    """A file or directory path; an empty one is refused."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


STR_LIST, INT_LIST = _list_parser(str), _list_parser(int)
DIST_LIST = _list_parser(str, DISTRIBUTIONS, "distribution or estimator")
ESTIMATOR_LIST = _list_parser(str, ESTIMATOR_KINDS, "distribution or estimator")
# A repeated grid value would train the same cell twice.
LR_GRID, BATCH_GRID = _list_parser(float, unique="grid value"), _list_parser(int, unique="grid value")
# The default of a key or flag that must be set (None is tau's default).
REQUIRED = object()
# Each config's schema maps a key to (parser, default), required keys first.
PIPELINE_KEYS = {
    "master_seed": (int, REQUIRED), "n": (int, REQUIRED), "m": (int, REQUIRED), "kappa": (int, REQUIRED),
    "pairs_per_level": (int, REQUIRED), "epochs": (int, REQUIRED), "learning_rate": (float, REQUIRED),
    "batch_size": (int, REQUIRED), "instances": (int, REQUIRED), "evals": (int, REQUIRED),
    "checkpoints": (INT_LIST, REQUIRED), "out_dir": (_path, REQUIRED),
    "split_fraction": (float, SPLIT_FRACTION), "node_budget": (int, DEFAULT_NODE_BUDGET),
    "distributions": (DIST_LIST, DISTRIBUTIONS), "estimators": (ESTIMATOR_LIST, ESTIMATOR_KINDS),
    **{key: (float, default) for key, default in DIST_DEFAULTS.items()},
}
BENCH_KEYS = {
    "probability": {"table": (_path, REQUIRED), "samples": (int, REQUIRED), "seed": (int, 0)},
    "histogram": {"table": (_path, REQUIRED), "samples": (int, REQUIRED), "bins": (int, 100), "seed": (int, 0)},
    "prediction": {"table": (_path, REQUIRED), "model": (_path, REQUIRED), "levels": (INT_LIST, REQUIRED),
                   "samples_per_level": (int, REQUIRED), "seed": (int, 0), "node_budget": (int, DEFAULT_NODE_BUDGET)},
    "curves": {"tables": (STR_LIST, REQUIRED), "estimators": (ESTIMATOR_LIST, REQUIRED), "evals": (int, REQUIRED),
               "checkpoints": (INT_LIST, REQUIRED), "models": (STR_LIST, None), "seed": (int, 0),
               "node_budget": (int, DEFAULT_NODE_BUDGET)},
}


def _generator(dist: str, n: int, params) -> tuple:
    """Distribution `dist`'s generator, looked up when called rather than
    bound at import, and its parameters built from the DIST_DEFAULTS keys."""
    if dist == "npd":
        return generate_npd, NpdParams(mu=params["mu"], sigma=params["sigma"])
    tau = n / 2 if params["tau"] is None else params["tau"]
    trap = TrapParams(sigma=params["sigma"], delta=params["delta"], tau_threshold=tau, epsilon=params["eps"])
    return generate_trap, trap


def _label(table: ValueTable, cfg: DatasetConfig, budget: int, path) -> list:
    """Label a dataset of `table` exactly and save it to `path`; an m that the
    dataset format cannot store is refused before labeling."""
    check_storable(table.m)
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


def _curves(tables, names, models, evals, checkpoints, seed, budget, csv_path: Path, dist: str = ""):
    """Best-of-N curves over `tables` for each named heuristic, written to
    csv_path and its .svg twin; `models` holds the neural heuristic's network
    for each table. Returns the report and the paths written."""
    estimators = {name: [Estimator(name, model) for model in models] if name == "neural"
                  else [Estimator(name)] * len(tables) for name in names}
    report = benchmark_curves(tables, estimators, evals, checkpoints, seed, node_budget=budget)
    prefix, title = (f"{dist}: ", f"Best solution value ({dist})") if dist else ("", "Best solution value")
    if report.optimum_mean is None:
        print(f"{prefix}optimum unavailable at this scale")
    return report, write_curves_report(report, csv_path, title=title)


def cmd_generate(args) -> int:
    generate, params = _generator(args.dist, args.n, vars(args))
    generate(ProblemSpec(args.n, args.m, args.seed), params).save(args.out)
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
    estimator = Estimator(args.estimator, MlpModel.load(args.model) if args.model else None)
    checkpoints = args.checkpoints if args.checkpoints else [args.evals]
    result = best_of_n(table, estimator, args.evals, checkpoints, np.random.default_rng(args.seed))
    print("checkpoint,best_value")
    for row in result.checkpoints:
        print(csv_line(row))
    return 0


def read_config(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored, and an
    empty or repeated key is refused."""
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not (equals and key):
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if key in config:
            raise ConfigError(f"line {lineno}: repeated config key {key}")
        config[key] = value
    return config


def _parse_config(config: dict[str, str], schema: dict) -> argparse.Namespace:
    """Every key of `schema`, parsed from `config` or set to its default.

    Refuses, by name, a key the schema lacks, a missing required key and
    a value its parser cannot convert."""
    unknown = [key for key in config if key not in schema]
    if unknown:
        raise ConfigError(f"unknown config key: {', '.join(unknown)}")
    missing = [key for key, (_, default) in schema.items() if default is REQUIRED and key not in config]
    if missing:
        raise ConfigError(f"missing config key: {', '.join(missing)}")
    values = {key: default for key, (_, default) in schema.items()}
    for key, text in config.items():
        try:
            values[key] = schema[key][0](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return argparse.Namespace(**values)


def cmd_bench(args) -> int:
    experiment = args.experiment
    c = _parse_config(read_config(args.config), BENCH_KEYS[experiment])
    out_dir = Path(args.out_dir)

    if experiment == "curves":
        if ("neural" in c.estimators) != (c.models is not None):
            raise ConfigError("models is required for the neural estimator and refused for the others")
        if c.models is not None and len(c.models) != len(c.tables):
            raise ConfigError("models must list one model per table")
        checkpoints = checked_checkpoints(c.evals, c.checkpoints)
        tables = [ValueTable.load(p) for p in c.tables]
        models = [MlpModel.load(p) for p in c.models or ()]
        for model, table in zip(models, tables):
            check_fits(model, table)
        _, paths = _curves(tables, c.estimators, models, c.evals, checkpoints, c.seed, c.node_budget,
                           out_dir / "curves.csv")
        print(f"wrote {paths[0]}")
        return 0

    table = ValueTable.load(c.table)
    rng = np.random.default_rng(c.seed)
    if experiment == "probability":
        prob, positives = estimate_positive_probability(table, c.samples, rng)
        write_csv(out_dir / "probability.csv", "samples,positives,probability", [(c.samples, positives, prob)])
        print(f"P(V>0) = {prob:.6g} ({positives}/{c.samples})")
    elif experiment == "histogram":
        paths = write_histogram(out_dir / "histogram.csv", *value_histogram(table, c.samples, c.bins, rng))
        print(f"wrote {paths[0]}")
    else:
        model = MlpModel.load(c.model)
        check_fits(model, table)
        report = prediction_error_report(
            lambda assignment: predict_value_to_go(model, assignment, table),
            table, c.levels, c.samples_per_level, rng, node_budget=c.node_budget,
        )
        paths = write_prediction_report(report, out_dir)
        print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def run_pipeline(config: dict[str, str]) -> dict:
    """generate -> label -> train -> benchmark curves, with derived seeds;
    each stage runs over every instance of a distribution before the next.

    Returns the manifest; artifacts and manifest.json land in out_dir.
    The whole config is checked before out_dir is created: a bad key or value
    raises a ValueError naming it, and labeling over the budget raises
    BudgetExceededError.
    """
    c = _parse_config(config, PIPELINE_KEYS)
    if not 0.0 < c.split_fraction < 1.0:
        raise ConfigError(f"split_fraction must be in (0, 1), got {c.split_fraction}")
    if c.instances < 1:
        raise ConfigError(f"instances must be at least 1, got {c.instances}")
    # Constructing the stage settings refuses out-of-range values before any stage runs.
    ProblemSpec(c.n, c.m).check_table_memory()
    generators = [(dist, *_generator(dist, c.n, vars(c))) for dist in c.distributions]
    dataset_cfg = DatasetConfig(c.kappa, c.pairs_per_level)
    TrainConfig(c.learning_rate, c.batch_size, c.epochs)
    checkpoints = checked_checkpoints(c.evals, c.checkpoints)
    if "neural" in c.estimators:
        check_storable(c.m)
        check_levels(c.n, c.m, range(1, c.kappa + 1), c.pairs_per_level, c.node_budget)
        n_train, n_test = split_sizes(c.kappa * c.pairs_per_level, c.split_fraction)
        if not (n_train and n_test):
            raise ConfigError(f"split_fraction={c.split_fraction} leaves {n_train} train and {n_test} test records "
                              "per dataset; both must be nonempty")

    out_dir = Path(c.out_dir)
    for sub in ("tables", "datasets", "models", "curves"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    manifest: dict = {
        "config": dict(config), "seeds": {}, "files": {}, "timings_s": {}, "train": {}, "optimum": {}
    }

    def stage_seed(label: str) -> int:
        manifest["seeds"][label] = seed = derive_seed(c.master_seed, label)
        return seed

    written: list[Path] = []

    def artifact(path: Path) -> Path:
        """`path`, to be hashed into the manifest once every stage has run."""
        written.append(path)
        return path

    @contextmanager
    def stage(label: str):
        """Time one stage, which runs over every instance, into the manifest."""
        t0 = time.perf_counter()
        yield
        manifest["timings_s"][label] = round(time.perf_counter() - t0, 3)

    for dist, generate, params in generators:
        with stage(f"generate/{dist}"):
            tables: list[ValueTable] = []
            for i in range(c.instances):
                tables.append(generate(ProblemSpec(c.n, c.m, stage_seed(f"table/{dist}/{i}")), params))
                tables[i].save(artifact(out_dir / "tables" / f"{dist}_{i}.ucav"))

        models: list[MlpModel] = []
        if "neural" in c.estimators:
            with stage(f"label/{dist}"):
                datasets = [_label(table, replace(dataset_cfg, seed=stage_seed(f"dataset/{dist}/{i}")),
                                   c.node_budget, artifact(out_dir / "datasets" / f"{dist}_{i}.ucad"))
                            for i, table in enumerate(tables)]

            with stage(f"train/{dist}"):
                for i, pairs in enumerate(datasets):
                    _, model, trace, steps = _fit(
                        pairs, c.n, c.m, c.split_fraction, stage_seed(f"split/{dist}/{i}"), [c.learning_rate],
                        [c.batch_size], c.epochs, stage_seed(f"train/{dist}/{i}"),
                        artifact(out_dir / "models" / f"{dist}_{i}.ucam"),
                        artifact(out_dir / "models" / f"{dist}_{i}_trace.csv"),
                    )
                    _, train_loss, test_loss = trace[-1]
                    manifest["train"][f"{dist}/{i}"] = {
                        "adam_steps": steps, "final_train_loss": train_loss, "final_test_loss": test_loss}
                    models.append(model)

        with stage(f"bench/{dist}"):
            report, paths = _curves(tables, c.estimators, models, c.evals, checkpoints, stage_seed(f"bench/{dist}"),
                                    c.node_budget, out_dir / "curves" / f"curves_{dist}.csv", dist)
            manifest["optimum"][dist] = report.optimum_mean
            written += paths

    for path in written:
        manifest["files"][str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"pipeline complete: {manifest_path}")
    return manifest


def cmd_pipeline(args) -> int:
    run_pipeline(read_config(args.config))
    return 0


# Each subcommand's handler, help line and flag schema. A flag maps to
# (parser, default) as a config key does; a tuple of names as the parser
# means one of those names.
COMMANDS = {
    "generate": (cmd_generate, "generate a value table", {
        "dist": (DISTRIBUTIONS, REQUIRED), "n": (int, REQUIRED), "m": (int, REQUIRED), "seed": (int, REQUIRED),
        **{key: (float, default) for key, default in DIST_DEFAULTS.items()}, "out": (_path, REQUIRED)}),
    "solve": (cmd_solve, "exact optimum by exhaustive search", {
        "table": (_path, REQUIRED), "budget": (int, DEFAULT_NODE_BUDGET)}),
    "label": (cmd_label, "build an exactly labeled dataset", {
        "table": (_path, REQUIRED), "kappa": (int, REQUIRED), "pairs": (int, REQUIRED), "seed": (int, REQUIRED),
        "budget": (int, DEFAULT_NODE_BUDGET), "out": (_path, REQUIRED)}),
    "train": (cmd_train, "train the value-to-go network", {
        "data": (_path, REQUIRED), "out": (_path, REQUIRED), "lr-grid": (LR_GRID, (1e-4, 3e-4, 1e-3, 3e-3)),
        "batch-grid": (BATCH_GRID, (32, 64, 128)), "epochs": (int, 200), "split": (float, SPLIT_FRACTION),
        "seed": (int, 0), "trace": (_path, None)}),
    "rollout": (cmd_rollout, "best-of-N greedy rollouts", {
        "table": (_path, REQUIRED), "estimator": (ESTIMATOR_KINDS, REQUIRED), "model": (_path, None),
        "evals": (int, REQUIRED), "checkpoints": (INT_LIST, None), "seed": (int, 0)}),
    "bench": (cmd_bench, "run one benchmark experiment from a config file", {
        "experiment": (tuple(BENCH_KEYS), REQUIRED), "config": (_path, REQUIRED), "out-dir": (_path, REQUIRED)}),
    "pipeline": (cmd_pipeline, "generate, label, train, and benchmark from a config file", {
        "config": (_path, REQUIRED)}),
}
FLAG_HELP = {
    "budget": "work units the exact search may use, refused up front: flat completions, or subset-DP updates "
              "(including a solve's descent) where the DP runs (default %(default)s)",
    "tau": "trap threshold (default n/2)", "trace": "trace CSV path (default training_trace.csv next to model)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ucalab", description="Utilitarian combinatorial assignment laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_line, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag, (parse, default) in flags.items():
            kind = {"choices": parse} if isinstance(parse, tuple) else {"type": parse}
            setting = {"required": True} if default is REQUIRED else {"default": default}
            p.add_argument(f"--{flag}", help=FLAG_HELP.get(flag), **kind, **setting)
        p.set_defaults(func=handler)
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
