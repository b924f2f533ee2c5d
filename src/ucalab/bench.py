"""Experiment harness: Monte Carlo value statistics, prediction-error
reports, and best-of-N benchmark curves with CSV/SVG output.

All CSV output is deterministic for a fixed master seed: each (estimator,
instance) pair draws from its own derived seed, and its rollouts run in
lockstep blocks that keep each rollout's draws in rollout order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ValueTable, checked_integers
from .dataset import label_levels
from .exact import BudgetExceededError, DEFAULT_NODE_BUDGET, solve_exact
from .search import Estimator, best_of_n, checked_checkpoints
from .seeding import derive_seed
from .svg import Curve, padded_range, write_line_chart, write_scatter

_CI_FACTOR = 1.96  # normal-approximation 95% interval over instance means
MC_BATCH = 1 << 20  # Monte Carlo samples drawn per vectorized batch


def _sampled_values(table: ValueTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """Values of `count` uniform complete assignments, vectorized: the flat
    table indices mask·m + t of every bundle, one 1-D add per element, then
    one `take`. Labels are drawn in the smallest unsigned type that holds m - 1."""
    n, m = table.n, table.m
    labels = rng.integers(0, m, size=(count, n), dtype=np.min_scalar_type(m - 1))
    index = np.tile(np.arange(m), count)
    rows = np.arange(0, count * m, m)
    for j in range(n):
        index[rows + labels[:, j]] += m << j
    del labels, rows  # freed before the gather, where a batch's memory peaks
    return table.values.reshape(-1).take(index.reshape(count, m)).sum(axis=1)


def _value_batches(table: ValueTable, samples: int, rng: np.random.Generator):
    """Values of `samples` uniform complete assignments, in batches of at
    most MC_BATCH rows and MC_BATCH * 16 flat indices (one per bundle), so a
    batch's memory does not grow with m; the sample count is checked before
    the first draw."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    batch = max(1, min(MC_BATCH, MC_BATCH * 16 // table.m))
    return (_sampled_values(table, min(batch, samples - start), rng) for start in range(0, samples, batch))


def estimate_positive_probability(table: ValueTable, samples: int, rng: np.random.Generator) -> tuple[float, int]:
    """Fraction of uniform complete assignments with positive value."""
    positives = sum(int((vals > 0).sum()) for vals in _value_batches(table, samples, rng))
    return positives / samples, positives


def value_histogram(
    table: ValueTable,
    samples: int,
    bins: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of assignment values over uniform samples.

    Bin edges are fixed from the first batch (padded 5%); later values
    outside that range are clipped into the boundary bins so the counts
    always sum to `samples`.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    counts = np.zeros(bins, dtype=np.int64)
    edges = None
    for vals in _value_batches(table, samples, rng):
        if edges is None:
            edges = np.linspace(*padded_range(float(vals.min()), float(vals.max())), bins + 1)
        counts += np.histogram(np.clip(vals, edges[0], edges[-1]), bins=edges)[0]
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

    `predictor` maps a partial assignment to a predicted value-to-go (for
    a trained network, `neural.predict_value_to_go` bound to its model and
    table). Records are sampled and labeled by `dataset.label_levels`, which
    checks every level's exact labeling cost against the budget before
    sampling.
    """
    if samples_per_level < 1:
        raise ValueError("samples_per_level must be at least 1")
    levels = checked_integers(levels, "levels")
    if not levels:
        raise ValueError("at least one level is required")
    pairs = label_levels(table, levels, samples_per_level, rng, node_budget)
    scatter = [(pair.target, float(predictor(pair.assignment))) for pair in pairs]
    errors = np.array([true - predicted for true, predicted in scatter]).reshape(len(levels), samples_per_level)
    stds = errors.std(axis=1, ddof=1) if samples_per_level > 1 else np.zeros(len(levels))
    rows = [LevelErrorRow(k, float(mean), float(std), samples_per_level)
            for k, mean, std in zip(levels, errors.mean(axis=1), stds)]
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
) -> CurvesReport:
    """Best-of-N curves averaged over problem instances with 95% CIs.

    `estimators` maps a label to one Estimator per table (neural heuristics
    are instance-specific). The exact optimum line is included when the
    instance size fits the budget; otherwise optimum_mean is None and
    the caller should surface that explicitly.
    """
    if not tables:
        raise ValueError("at least one value table is required")
    checkpoints = checked_checkpoints(n_evals, checkpoints)
    if not checkpoints or not estimators:
        raise ValueError("at least one checkpoint and one estimator are required")
    for label, insts in estimators.items():
        if len(insts) != len(tables):
            raise ValueError(f"estimator {label!r} needs one instance per table")

    k = len(tables)
    rows: list[CurveRow] = []
    for label, insts in estimators.items():
        curves = []
        for ti, (table, estimator) in enumerate(zip(tables, insts)):
            rng = np.random.default_rng(derive_seed(master_seed, f"rollout/{label}/{ti}"))
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
    try:
        optima = np.array([solve_exact(t, node_budget)[1] for t in tables])
        optimum_mean = float(optima.mean())
        if k > 1:
            optimum_ci = float(_CI_FACTOR * optima.std(ddof=1) / np.sqrt(k))
    except BudgetExceededError:
        pass
    return CurvesReport(rows, optimum_mean, optimum_ci, k)


def csv_line(values) -> str:
    """One line of the CSV dialect every report uses: floats as their
    repr, every other value as str, joined by commas."""
    return ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values)


def write_csv(path: str | Path, columns: str, rows, comments=()) -> None:
    """Write a CSV file, creating its directory: one `# ` line per comment,
    the column header, one csv_line per row, and a trailing newline."""
    lines = [f"# {comment}" for comment in comments] + [columns] + [csv_line(row) for row in rows]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def write_histogram(csv_path: str | Path, edges: np.ndarray, counts: np.ndarray) -> list[Path]:
    """Emit the histogram CSV and its .svg twin; returns both paths."""
    csv_path, svg_path = Path(csv_path), Path(csv_path).with_suffix(".svg")
    write_csv(csv_path, "bin_low,bin_high,count", zip(edges[:-1], edges[1:], counts.tolist()))
    centers = (edges[:-1] + edges[1:]) / 2
    curve = Curve("count", list(zip(centers.tolist(), counts.astype(float).tolist())))
    write_line_chart(svg_path, [curve], title="Assignment value distribution",
                     xlabel="assignment value", ylabel="count")
    return [csv_path, svg_path]


def write_prediction_report(report: PredictionErrorReport, out_dir: str | Path) -> list[Path]:
    """Emit prediction_errors.csv/.svg and prediction_scatter.csv/.svg; returns paths."""
    out_dir = Path(out_dir)
    errors_csv = out_dir / "prediction_errors.csv"
    write_csv(errors_csv, "unassigned,mean_error,std_error,n_samples",
              [(row.unassigned, row.mean_error, row.std_error, row.n_samples) for row in report.rows])
    scatter_csv = out_dir / "prediction_scatter.csv"
    write_csv(scatter_csv, "true_value,predicted_value", report.scatter)

    errors_svg = out_dir / "prediction_errors.svg"
    curve = Curve(
        "mean error (bars: 2 std)",
        [(row.unassigned, row.mean_error) for row in report.rows],
        [2.0 * row.std_error for row in report.rows],
    )
    write_line_chart(errors_svg, [curve], title="Prediction error by unassigned count",
                     xlabel="unassigned elements", ylabel="true minus predicted")
    scatter_svg = out_dir / "prediction_scatter.svg"
    write_scatter(scatter_svg, report.scatter, title="Predicted vs true value-to-go",
                  xlabel="true value", ylabel="predicted value")
    return [errors_csv, scatter_csv, errors_svg, scatter_svg]


def write_curves_report(report: CurvesReport, csv_path: str | Path, title: str = "Best solution value") -> list[Path]:
    """Emit the curves CSV and its .svg twin; returns both paths."""
    csv_path, svg_path = Path(csv_path), Path(csv_path).with_suffix(".svg")
    comments = [f"95% CI: normal approximation, mean +/- {_CI_FACTOR}*sd/sqrt({report.n_instances})"]
    csv_rows = [(row.estimator, row.checkpoint, row.mean, row.ci_low, row.ci_high) for row in report.rows]
    if report.optimum_mean is None:
        comments.append("optimum unavailable at this scale")
    else:
        o, h = report.optimum_mean, report.optimum_ci
        csv_rows += [("optimum", c, o, o - h, o + h) for c in sorted({row.checkpoint for row in report.rows})]
    write_csv(csv_path, "estimator,checkpoint,mean,ci_low,ci_high", csv_rows, comments)

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
    return [csv_path, svg_path]
