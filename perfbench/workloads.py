"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in `setup`, does one
round of timed work in `run_round`, timing each step of it with
`step(name)`, and checks that round's outputs in `check` (outside the timed
section). `round_counts` and `setup_counts` give the work counts a traced
round or set-up must show. Every round does the same steps, on inputs
derived from (seed, round index), so a step's times are comparable across
rounds and the sum of each step's fastest time is the workload's time.

Why these three: the layers' costs respond to different input properties.
`pipeline-accept` is the run users make; its 32 KB table fits in L1 and its
network is width 41, so per-call Python overhead dominates every layer.
`exact-deep` makes search nodes dominate (m^u per record at depth u up to 6,
and full m^n solves), with no training or rollouts. `rollout-full` is the
paper's scale: an 80 MiB table that misses L2, a flop-bound width-201
network, and the only Monte Carlo work; its exact work is shallow.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import oracle
from ucalab import bench, cli, core, dataset, exact, neural, search, valuegen

# P(V > 0) for uniform complete assignments on the rollout-full table
# distribution, measured on the seed commit with 3 x 10^7 samples over three
# tables (2150 positives).
FULL_SCALE_POSITIVE_P = 2150 / 3e7

# Width of the binomial acceptance band for the Monte Carlo estimate, in
# standard deviations.
MC_BAND_Z = 6.0


def round_seed(seed: int, r: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence([seed, r, stream]).generate_state(1, np.uint64)[0])


def sample_indices(count: int, k: int = 16) -> list[int]:
    return sorted({int(i) for i in np.linspace(0, count - 1, min(k, count))})


def check_records(checks, values: np.ndarray, pairs, what: str) -> None:
    """A fixed sample of labeled records must match the oracle bitwise."""
    for i in sample_indices(len(pairs)):
        labels = pairs[i].assignment.labels
        ok = (
            pairs[i].target == oracle.best_completion_value(values, labels)
            and pairs[i].current_value == oracle.assignment_value(values, labels)
        )
        checks.check(ok, f"{what}: record {i} differs from the oracle")


def check_rollout(checks, table, result, checkpoints, n_evals: int, what: str) -> None:
    """Best value re-scores exactly; checkpoints never decrease."""
    assignment = result.best_assignment
    values = [v for _, v in result.checkpoints]
    ok = (
        assignment.is_complete
        and core.value_of(assignment, table) == result.best_value
        and [c for c, _ in result.checkpoints] == list(checkpoints)
        and all(a <= b for a, b in zip(values, values[1:]))
        and (checkpoints[-1] != n_evals or values[-1] == result.best_value)
    )
    checks.check(ok, f"{what}: rollout result inconsistent")


def read_curves(path: Path) -> tuple[dict[str, list[float]], float | None]:
    series: dict[str, list[float]] = {}
    optimum = None
    with open(path, newline="") as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if row[0] == "estimator":
                continue
            if row[0] == "optimum":
                optimum = float(row[2])
            else:
                series.setdefault(row[0], []).append(float(row[2]))
    return series, optimum


def steps_per_train(records: int, split_fraction: float, epochs: int, batch: int) -> int:
    train_records = math.ceil((1.0 - split_fraction) * records)
    return epochs * math.ceil(train_records / batch)


def completions(m: int, kappa: int, pairs: int) -> int:
    return pairs * sum(m**u for u in range(1, kappa + 1))


def zero_counts() -> dict[str, int]:
    return {name: 0 for name in COUNTED}


COUNTED = (
    "exact.solve.calls",
    "exact.vtg.calls",
    "exact.completions",
    "dataset.build.records",
    "dataset.save.calls",
    "dataset.load.records",
    "neural.train.calls",
    "neural.train.steps",
    "neural.forward.calls",
    "neural.forward.rows",
    "search.rollouts.current",
    "search.rollouts.random",
    "search.rollouts.neural",
    "core.value_of.calls",
    "bench.mc.samples",
    "valuegen.generate.calls",
)


class PipelineAccept:
    """`cli.run_pipeline` on the acceptance config, one instance per distribution."""

    name = "pipeline-accept"

    FULL = {
        "n": "10",
        "m": "4",
        "kappa": "4",
        "pairs_per_level": "1500",
        "epochs": "60",
        "learning_rate": "1e-3",
        "batch_size": "64",
        "instances": "1",
        "evals": "2000",
        "checkpoints": "10,50,100,250,500,750,1000,1500,2000",
    }
    TINY = dict(FULL, n="6", m="3", kappa="2", pairs_per_level="60", epochs="2",
                batch_size="16", evals="20", checkpoints="5,20")
    DISTRIBUTIONS = ("npd", "trap")

    def __init__(self, config: dict[str, str]) -> None:
        self.config = config

    def _int(self, key: str) -> int:
        return int(self.config[key])

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "workdir": workdir}

    def run_round(self, state: dict, r: int, tracer, step) -> tuple[Path, dict]:
        out_dir = state["workdir"] / f"pipeline-{r}"
        config = dict(self.config, master_seed=str(round_seed(state["seed"], r)), out_dir=str(out_dir))
        with step("pipeline"):
            return out_dir, cli.run_pipeline(config)

    def check(self, state: dict, r: int, output, checks) -> float:
        out_dir, manifest = output
        n, instances = self._int("n"), self._int("instances")
        records = self._int("kappa") * self._int("pairs_per_level")
        checkpoints = [int(c) for c in self.config["checkpoints"].split(",")]
        for rel, digest in sorted(manifest["files"].items()):
            ok = hashlib.sha256((out_dir / rel).read_bytes()).hexdigest() == digest
            checks.check(ok, f"manifest sha256 mismatch for {rel}")
        ratio = float("nan")
        for dist in self.DISTRIBUTIONS:
            optima = []
            for i in range(instances):
                table = core.ValueTable.load(out_dir / "tables" / f"{dist}_{i}.ucav")
                optima.append(oracle.best_completion_value(table.values, [-1] * n))
                pairs, *_ = dataset.load_dataset(out_dir / "datasets" / f"{dist}_{i}.ucad")
                checks.check(len(pairs) == records, f"{dist}_{i}: {len(pairs)} records, expected {records}")
                check_records(checks, table.values, pairs, f"{dist}_{i} dataset")
            optimum = float(np.array(optima).mean())
            checks.check(manifest["optimum"][dist] == optimum, f"{dist}: optimum differs from the oracle")
            series, curve_optimum = read_curves(out_dir / "curves" / f"curves_{dist}.csv")
            checks.check(curve_optimum == optimum, f"{dist}: curves optimum line differs")
            for label, means in series.items():
                ok = (
                    len(means) == len(checkpoints)
                    and all(a <= b for a, b in zip(means, means[1:]))
                    and all(v <= optimum + 1e-12 for v in means)
                )
                checks.check(ok, f"{dist}/{label}: curve decreases or exceeds the optimum")
            if dist == "trap":
                ratio = series["neural"][-1] / optimum
        return ratio

    def round_counts(self) -> dict[str, int]:
        n, m = self._int("n"), self._int("m")
        kappa, pairs = self._int("kappa"), self._int("pairs_per_level")
        evals = self._int("evals")
        tables = self._int("instances") * len(self.DISTRIBUTIONS)
        counts = zero_counts()
        counts.update({
            "exact.solve.calls": tables,
            "exact.vtg.calls": tables * kappa * pairs,
            "exact.completions": tables * completions(m, kappa, pairs),
            "dataset.build.records": tables * kappa * pairs,
            "dataset.save.calls": tables,
            "neural.train.calls": tables,
            "neural.train.steps": tables * steps_per_train(
                kappa * pairs, 0.1, self._int("epochs"), self._int("batch_size")),
            "neural.forward.calls": tables * evals * n,
            "neural.forward.rows": tables * evals * n * m,
            "search.rollouts.current": tables * evals,
            "search.rollouts.random": tables * evals,
            "search.rollouts.neural": tables * evals,
            "core.value_of.calls": tables * (kappa * pairs + 3 * evals),
            "valuegen.generate.calls": tables,
        })
        return counts

    def setup_counts(self) -> dict[str, int]:
        return zero_counts()


class ExactDeep:
    """Exact optima, kappa=6 labeling and a dataset round trip on n=7, m=4 tables.

    Each round solves every table and labels one of them. The labeling is
    split into `label_calls` calls of `build_dataset`, each with its own seed
    and an equal share of the pairs per level, so that each timed step is
    short; the dataset saved is their concatenation."""

    name = "exact-deep"

    FULL = {"n": 7, "m": 4, "tables": 16, "kappa": 6, "pairs_per_level": 100, "label_calls": 100}
    TINY = {"n": 6, "m": 3, "tables": 2, "kappa": 3, "pairs_per_level": 10, "label_calls": 2}

    def __init__(self, params: dict) -> None:
        self.p = params

    def setup(self, seed: int, workdir: Path) -> dict:
        n, m = self.p["n"], self.p["m"]
        tables = []
        for i in range(self.p["tables"]):
            spec = core.ProblemSpec(n, m, round_seed(seed, i, 1))
            if i % 2 == 0:
                tables.append(valuegen.generate_npd(spec, valuegen.NpdParams(mu=1.0, sigma=0.1)))
            else:
                params = valuegen.TrapParams(sigma=0.1, delta=0.1, tau_threshold=n / 2, epsilon=0.1)
                tables.append(valuegen.generate_trap(spec, params))
        return {"seed": seed, "tables": tables, "path": workdir / "exact.ucad"}

    def run_round(self, state: dict, r: int, tracer, step):
        n, m, kappa, calls = self.p["n"], self.p["m"], self.p["kappa"], self.p["label_calls"]
        solved = []
        for table in state["tables"]:
            with step("solve"):
                solved.append(exact.solve_exact(table))
        table = state["tables"][r % len(state["tables"])]
        spec = core.ProblemSpec(n, m, table.seed)
        pairs = []
        for k in range(calls):
            cfg = dataset.DatasetConfig(kappa=kappa, pairs_per_level=self.p["pairs_per_level"] // calls,
                                        seed=round_seed(state["seed"], r, k))
            with step("label"):
                pairs += dataset.build_dataset(spec, table, cfg)
        with step("save"):
            dataset.save_dataset(state["path"], pairs, n, m, kappa)
        with step("load"):
            loaded = dataset.load_dataset(state["path"])
        return table, solved, pairs, loaded

    def check(self, state: dict, r: int, output, checks) -> None:
        table, solved, pairs, loaded = output
        for i, (solved_table, (assignment, value)) in enumerate(zip(state["tables"], solved)):
            best = oracle.best_completion_value(solved_table.values, [-1] * solved_table.n)
            checks.check(value == best, f"round {r} table {i}: solve_exact {value!r} != oracle {best!r}")
            ok = assignment.is_complete and core.value_of(assignment, solved_table) == value
            checks.check(ok, f"round {r} table {i}: optimal assignment does not re-score to its value")
        check_records(checks, table.values, pairs, f"round {r} dataset")
        ok = loaded == (pairs, table.n, table.m, self.p["kappa"])
        checks.check(ok, f"round {r}: dataset does not read back as written")

    def round_counts(self) -> dict[str, int]:
        m, kappa, pairs = self.p["m"], self.p["kappa"], self.p["pairs_per_level"]
        counts = zero_counts()
        counts.update({
            "exact.solve.calls": self.p["tables"],
            "exact.vtg.calls": kappa * pairs,
            "exact.completions": completions(m, kappa, pairs),
            "dataset.build.records": kappa * pairs,
            "dataset.save.calls": 1,
            "dataset.load.records": kappa * pairs,
            "core.value_of.calls": kappa * pairs,
        })
        return counts

    def setup_counts(self) -> dict[str, int]:
        counts = zero_counts()
        counts["valuegen.generate.calls"] = self.p["tables"]
        return counts


class RolloutFull:
    """Paper scale: load the n=20, m=10 trap table, label, train, roll out, sample.

    Labeling, each estimator's rollouts and the Monte Carlo samples are each
    split into equal calls (`label_calls`, `rollout_calls`, `mc_calls`), each
    with its own seed or generator, so that each timed step is short. Every
    rollout call is a best-of-`evals / rollout_calls` run with its own
    checkpoints; the Monte Carlo check is on the total positive count."""

    name = "rollout-full"

    FULL = {
        "n": 20, "m": 10, "tau": 10.0, "kappa": 2, "pairs_per_level": 1000, "label_calls": 20,
        "epochs": 4, "batch_size": 64, "evals": 300, "rollout_calls": 60, "checkpoints": (1, 5),
        "mc_samples": 10**6, "mc_calls": 50, "mc_reference": FULL_SCALE_POSITIVE_P,
    }
    # At the tiny scale the reference is the exact share, by enumeration.
    TINY = dict(FULL, n=6, m=3, tau=3.0, pairs_per_level=30, label_calls=2, epochs=2, batch_size=16,
                evals=20, rollout_calls=2, checkpoints=(5, 10), mc_samples=20_000, mc_calls=2,
                mc_reference=None)
    SPLIT = 0.1
    # Seed streams of a round: label call k uses LABEL + k, and so on.
    SPLIT_STREAM, TRAIN_STREAM, LABEL, ROLLOUT, MC = 1, 2, 100, 200, 300

    def __init__(self, params: dict) -> None:
        self.p = params

    def setup(self, seed: int, workdir: Path) -> dict:
        spec = core.ProblemSpec(self.p["n"], self.p["m"], round_seed(seed, 0, 1))
        params = valuegen.TrapParams(sigma=0.1, delta=0.1, tau_threshold=self.p["tau"], epsilon=0.1)
        table = valuegen.generate_trap(spec, params)
        path = workdir / "full.ucav"
        table.save(path)
        reference = self.p["mc_reference"]
        if reference is None:
            reference = oracle.positive_fraction(table.values, table.n)
        return {"seed": seed, "table": table, "path": path, "mc_reference": reference}

    def run_round(self, state: dict, r: int, tracer, step) -> dict:
        p, seed = self.p, state["seed"]
        with step("table_load"), tracer.span("core.table_load"):
            table = core.ValueTable.load(state["path"])
        spec = core.ProblemSpec(table.n, table.m, table.seed)
        pairs = []
        for k in range(p["label_calls"]):
            cfg = dataset.DatasetConfig(kappa=p["kappa"], pairs_per_level=p["pairs_per_level"] // p["label_calls"],
                                        seed=round_seed(seed, r, self.LABEL + k))
            with step("label"):
                pairs += dataset.build_dataset(spec, table, cfg)
        with step("split"):
            train_pairs, test_pairs = dataset.split_dataset(
                pairs, self.SPLIT, np.random.default_rng(round_seed(seed, r, self.SPLIT_STREAM)))
        tcfg = neural.TrainConfig(learning_rate=1e-3, batch_size=p["batch_size"], epochs=p["epochs"],
                                  seed=round_seed(seed, r, self.TRAIN_STREAM))
        with step("train"):
            model, trace = neural.train(train_pairs, test_pairs, tcfg, table.n, table.m)
        estimators = (search.Estimator.current_value(), search.Estimator.random(),
                      search.Estimator.neural(model))
        rollouts = []
        for e, estimator in enumerate(estimators):
            for k in range(p["rollout_calls"]):
                rng = np.random.default_rng(round_seed(seed, r, self.ROLLOUT + e * p["rollout_calls"] + k))
                with step("rollout." + estimator.kind):
                    rollouts.append((estimator.kind, search.best_of_n(
                        table, estimator, p["evals"] // p["rollout_calls"], p["checkpoints"], rng)))
        positives = 0
        for k in range(p["mc_calls"]):
            rng = np.random.default_rng(round_seed(seed, r, self.MC + k))
            with step("mc"):
                positives += bench.estimate_positive_probability(table, p["mc_samples"] // p["mc_calls"], rng)[1]
        return {"table": table, "pairs": pairs, "trace": trace, "rollouts": rollouts,
                "positives": positives}

    def check(self, state: dict, r: int, output, checks) -> None:
        table = output["table"]
        ok = (table.n, table.m, table.seed) == (state["table"].n, state["table"].m, state["table"].seed)
        checks.check(ok and np.array_equal(table.values, state["table"].values),
                     f"round {r}: loaded table differs from the generated one")
        check_records(checks, table.values, output["pairs"], f"round {r} dataset")
        losses = np.array([row[1:] for row in output["trace"]])
        checks.check(bool(np.isfinite(losses).all()), f"round {r}: training loss is not finite")
        evals = self.p["evals"] // self.p["rollout_calls"]
        for kind, result in output["rollouts"]:
            check_rollout(checks, table, result, self.p["checkpoints"], evals, f"round {r} {kind}")
        samples, reference = self.p["mc_samples"], state["mc_reference"]
        expected = samples * reference
        band = MC_BAND_Z * math.sqrt(expected * (1.0 - reference)) + 1.0
        checks.check(abs(output["positives"] - expected) <= band,
                     f"round {r}: {output['positives']} positives, expected {expected:.1f} +/- {band:.1f}")

    def round_counts(self) -> dict[str, int]:
        p = self.p
        records = p["kappa"] * p["pairs_per_level"]
        counts = zero_counts()
        counts.update({
            "exact.vtg.calls": records,
            "exact.completions": completions(p["m"], p["kappa"], p["pairs_per_level"]),
            "dataset.build.records": records,
            "neural.train.calls": 1,
            "neural.train.steps": steps_per_train(records, self.SPLIT, p["epochs"], p["batch_size"]),
            "neural.forward.calls": p["evals"] * p["n"],
            "neural.forward.rows": p["evals"] * p["n"] * p["m"],
            "search.rollouts.current": p["evals"],
            "search.rollouts.random": p["evals"],
            "search.rollouts.neural": p["evals"],
            "core.value_of.calls": records + 3 * p["evals"],
            "bench.mc.samples": p["mc_samples"],
        })
        return counts

    def setup_counts(self) -> dict[str, int]:
        counts = zero_counts()
        counts["valuegen.generate.calls"] = 1
        return counts


WORKLOADS = {w.name: w for w in (PipelineAccept, ExactDeep, RolloutFull)}


def make(name: str, tiny: bool = False):
    cls = WORKLOADS[name]
    return cls(cls.TINY if tiny else cls.FULL)
