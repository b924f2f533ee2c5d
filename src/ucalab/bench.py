"""Experiment harness: Monte Carlo value statistics, prediction-error
reports, and best-of-N benchmark curves with CSV/SVG output.

All CSV output is deterministic for a fixed master seed: rollouts run
serially, and each (estimator, instance) pair draws from its own derived
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProblemSpec, ValueTable
from .dataset import sample_partial_assignment
from .exact import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    dfs_node_count,
    exact_value_to_go,
    solve_exact,
)
from .neural import MlpModel, predict_value_to_go
from .search import Estimator, best_of_n
from .seeding import derived_rng
from .svg import Curve, write_line_chart, write_scatter

_CI_FACTOR = 1.96  # normal-approximation 95% interval over instance means


def _sampled_values(table: ValueTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """Values of `count` uniform complete assignments, vectorized."""
    n, m = table.n, table.m
    labels = rng.integers(0, m, size=(count, n), dtype=np.int8)
    masks = np.zeros((count, m), dtype=np.int64)
    rows = np.arange(count)
    for j in range(n):
        masks[rows, labels[:, j]] |= 1 << j
    return table.values[masks, np.arange(m)].sum(axis=1)


def estimate_positive_probability(
    table: ValueTable,
    samples: int,
    rng: np.random.Generator,
    batch_size: int = 1 << 20,
) -> tuple[float, int]:
    """Fraction of uniform complete assignments with positive value."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    positives = 0
    remaining = samples
    while remaining > 0:
        count = min(remaining, batch_size)
        positives += int((_sampled_values(table, count, rng) > 0).sum())
        remaining -= count
    return positives / samples, positives


def value_histogram(
    table: ValueTable,
    samples: int,
    bins: int,
    rng: np.random.Generator,
    batch_size: int = 1 << 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of assignment values over uniform samples.

    Bin edges are fixed from the first batch (padded 5%); later values
    outside that range are clipped into the boundary bins so the counts
    always sum to `samples`.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    counts = np.zeros(bins, dtype=np.int64)
    edges = None
    remaining = samples
    while remaining > 0:
        count = min(remaining, batch_size)
        vals = _sampled_values(table, count, rng)
        if edges is None:
            lo, hi = float(vals.min()), float(vals.max())
            if lo == hi:
                lo -= 0.5
                hi += 0.5
            pad = 0.05 * (hi - lo)
            edges = np.linspace(lo - pad, hi + pad, bins + 1)
        counts += np.histogram(np.clip(vals, edges[0], edges[-1]), bins=edges)[0]
        remaining -= count
    return edges, counts


@dataclass(frozen=True)
class LevelErrorRow:
    unassigned: int
    mean_error: float
    std_error: float
    n_samples: int


@dataclass
class PredictionErrorReport:
    rows: list[LevelErrorRow]
    scatter: list[tuple[float, float]]  # (true value-to-go, prediction)


def prediction_error_report(
    predictor,
    table: ValueTable,
    levels,
    samples_per_level: int,
    rng: np.random.Generator,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PredictionErrorReport:
    """Exact-minus-predicted statistics grouped by unassigned count.

    `predictor` is either a trained MlpModel or any callable mapping a
    partial assignment to a predicted value-to-go. Every level's exact
    labeling cost is checked against the node budget before sampling.
    """
    if samples_per_level < 1:
        raise ValueError("samples_per_level must be at least 1")
    if isinstance(predictor, MlpModel):
        model = predictor
        predict = lambda s: predict_value_to_go(model, s, table)  # noqa: E731
    else:
        predict = predictor
    spec = ProblemSpec(table.n, table.m, table.seed)
    levels = [int(k) for k in levels]
    for k in levels:
        if not 1 <= k <= table.n:
            raise ValueError(f"level {k} out of range")
        cost = samples_per_level * dfs_node_count(table.m, k)
        if cost > node_budget:
            raise BudgetExceededError(cost, node_budget, f"level with {k} unassigned")
    rows = []
    scatter: list[tuple[float, float]] = []
    for k in levels:
        errors = np.empty(samples_per_level)
        for s in range(samples_per_level):
            assignment = sample_partial_assignment(spec, table.n - k, rng)
            true_value = exact_value_to_go(assignment, table, node_budget=node_budget)
            predicted = float(predict(assignment))
            errors[s] = true_value - predicted
            scatter.append((true_value, predicted))
        std = float(errors.std(ddof=1)) if samples_per_level > 1 else 0.0
        rows.append(LevelErrorRow(k, float(errors.mean()), std, samples_per_level))
    return PredictionErrorReport(rows, scatter)


@dataclass(frozen=True)
class CurveRow:
    estimator: str
    checkpoint: int
    mean: float
    ci_low: float
    ci_high: float


@dataclass
class CurvesReport:
    rows: list[CurveRow]
    optimum_mean: float | None
    optimum_ci: float
    n_instances: int


def benchmark_curves(
    tables: list[ValueTable],
    estimators: dict[str, list[Estimator]],
    n_evals: int,
    checkpoints,
    master_seed: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    include_optimum: bool = True,
) -> CurvesReport:
    """Best-of-N curves averaged over problem instances with 95% CIs.

    `estimators` maps a label to one Estimator per table (neural heuristics
    are instance-specific). The exact optimum line is included when the
    instance size fits the node budget; otherwise optimum_mean is None and
    the caller should surface that explicitly.
    """
    if not tables:
        raise ValueError("at least one value table is required")
    checkpoints = [int(c) for c in checkpoints]
    for label, insts in estimators.items():
        if len(insts) != len(tables):
            raise ValueError(f"estimator {label!r} needs one instance per table")

    k = len(tables)
    rows: list[CurveRow] = []
    for label, insts in estimators.items():
        curves = []
        for ti, (table, estimator) in enumerate(zip(tables, insts)):
            rng = derived_rng(master_seed, f"rollout/{label}/{ti}")
            result = best_of_n(table, estimator, n_evals, checkpoints, rng)
            curves.append([v for _, v in result.checkpoints])
        matrix = np.array(curves)
        means = matrix.mean(axis=0)
        sds = matrix.std(axis=0, ddof=1) if k > 1 else np.zeros(len(checkpoints))
        half = _CI_FACTOR * sds / np.sqrt(k)
        for c, mean, h in zip(checkpoints, means, half):
            rows.append(CurveRow(label, c, float(mean), float(mean - h), float(mean + h)))

    optimum_mean = None
    optimum_ci = 0.0
    if include_optimum:
        try:
            optima = np.array([solve_exact(t, node_budget)[1] for t in tables])
            optimum_mean = float(optima.mean())
            if k > 1:
                optimum_ci = float(_CI_FACTOR * optima.std(ddof=1) / np.sqrt(k))
        except BudgetExceededError:
            optimum_mean = None
    return CurvesReport(rows, optimum_mean, optimum_ci, k)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_probability_csv(path: str | Path, samples: int, positives: int, probability: float) -> None:
    lines = ["samples,positives,probability", f"{samples},{positives},{_fmt(probability)}"]
    Path(path).write_text("\n".join(lines) + "\n")


def write_histogram(csv_path: str | Path, svg_path: str | Path | None, edges: np.ndarray, counts: np.ndarray) -> None:
    lines = ["bin_low,bin_high,count"]
    for i, c in enumerate(counts):
        lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(c)}")
    Path(csv_path).write_text("\n".join(lines) + "\n")
    if svg_path is not None:
        centers = (edges[:-1] + edges[1:]) / 2
        curve = Curve("count", list(zip(centers.tolist(), counts.astype(float).tolist())))
        write_line_chart(svg_path, [curve], title="Assignment value distribution",
                         xlabel="assignment value", ylabel="count")


def write_prediction_report(report: PredictionErrorReport, out_dir: str | Path, stem: str = "prediction") -> list[Path]:
    """Emit <stem>_errors.csv/.svg and <stem>_scatter.csv/.svg; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    errors_csv = out_dir / f"{stem}_errors.csv"
    lines = ["unassigned,mean_error,std_error,n_samples"]
    for row in report.rows:
        lines.append(f"{row.unassigned},{_fmt(row.mean_error)},{_fmt(row.std_error)},{row.n_samples}")
    errors_csv.write_text("\n".join(lines) + "\n")

    scatter_csv = out_dir / f"{stem}_scatter.csv"
    lines = ["true_value,predicted_value"]
    for true_value, predicted in report.scatter:
        lines.append(f"{_fmt(true_value)},{_fmt(predicted)}")
    scatter_csv.write_text("\n".join(lines) + "\n")

    errors_svg = out_dir / f"{stem}_errors.svg"
    curve = Curve(
        "mean error (bars: 2 std)",
        [(row.unassigned, row.mean_error) for row in report.rows],
        [2.0 * row.std_error for row in report.rows],
    )
    write_line_chart(errors_svg, [curve], title="Prediction error by unassigned count",
                     xlabel="unassigned elements", ylabel="true minus predicted")
    scatter_svg = out_dir / f"{stem}_scatter.svg"
    write_scatter(scatter_svg, report.scatter, title="Predicted vs true value-to-go",
                  xlabel="true value", ylabel="predicted value")
    return [errors_csv, scatter_csv, errors_svg, scatter_svg]


def write_curves_report(
    report: CurvesReport,
    csv_path: str | Path,
    svg_path: str | Path | None = None,
    title: str = "Best solution value",
) -> None:
    lines = [
        f"# 95% CI: normal approximation, mean +/- {_CI_FACTOR}*sd/sqrt({report.n_instances})",
    ]
    if report.optimum_mean is None:
        lines.append("# optimum unavailable at this scale")
    lines.append("estimator,checkpoint,mean,ci_low,ci_high")
    for row in report.rows:
        lines.append(
            f"{row.estimator},{row.checkpoint},{_fmt(row.mean)},{_fmt(row.ci_low)},{_fmt(row.ci_high)}"
        )
    if report.optimum_mean is not None:
        checkpoints = sorted({row.checkpoint for row in report.rows})
        o, h = report.optimum_mean, report.optimum_ci
        for c in checkpoints:
            lines.append(f"optimum,{c},{_fmt(o)},{_fmt(o - h)},{_fmt(o + h)}")
    Path(csv_path).write_text("\n".join(lines) + "\n")

    if svg_path is not None:
        labels = list(dict.fromkeys(row.estimator for row in report.rows))
        curves = []
        for label in labels:
            rows = [row for row in report.rows if row.estimator == label]
            curves.append(
                Curve(
                    label,
                    [(row.checkpoint, row.mean) for row in rows],
                    [(row.ci_high - row.ci_low) / 2 for row in rows],
                )
            )
        hline = ("optimum", report.optimum_mean) if report.optimum_mean is not None else None
        write_line_chart(svg_path, curves, title=title, xlabel="number of evaluations",
                         ylabel="best solution value", hline=hline)
