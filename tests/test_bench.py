import tracemalloc

import numpy as np
import pytest

from oracles import all_completion_values, reference_sampled_values

from ucalab import bench
from ucalab.bench import (
    benchmark_curves,
    estimate_positive_probability,
    prediction_error_report,
    value_histogram,
    write_curves_report,
    write_histogram,
    write_prediction_report,
)
from ucalab.core import PartialAssignment, ProblemSpec, ValueTable, value_of
from ucalab.exact import BudgetExceededError, exact_value_to_go, solve_exact
from ucalab.search import Estimator
from ucalab.valuegen import NpdParams, generate_npd


def npd_table(n, m, seed, mu=0.0, sigma=1.0):
    return generate_npd(ProblemSpec(n, m, seed), NpdParams(mu=mu, sigma=sigma))


def test_probability_all_negative_and_all_positive():
    n, m = 4, 2
    rng = np.random.default_rng(0)
    neg = ValueTable(n, m, -np.ones((1 << n, m)))
    assert estimate_positive_probability(neg, 500, rng) == (0.0, 0)
    pos = ValueTable(n, m, np.ones((1 << n, m)))
    assert estimate_positive_probability(pos, 500, rng) == (1.0, 500)
    with pytest.raises(ValueError):
        estimate_positive_probability(pos, 0, rng)


def test_probability_batching_is_seamless(monkeypatch):
    table = npd_table(5, 2, 1)
    b = estimate_positive_probability(table, 1000, np.random.default_rng(2))
    monkeypatch.setattr(bench, "MC_BATCH", 64)
    a = estimate_positive_probability(table, 1000, np.random.default_rng(2))
    assert a == b


@pytest.mark.parametrize("sample", [
    lambda table, rng: estimate_positive_probability(table, 0, rng),
    lambda table, rng: value_histogram(table, 0, 4, rng),
], ids=["probability", "histogram"])
def test_value_sampling_refuses_zero_samples_before_drawing(sample, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew samples before refusing the sample count")

    monkeypatch.setattr(bench, "_sampled_values", no_draws)
    with pytest.raises(ValueError, match="samples"):
        sample(npd_table(4, 2, 0), np.random.default_rng(0))


def test_histogram_counts_sum_to_samples():
    table = npd_table(6, 3, 3)
    edges, counts = value_histogram(table, 5000, 24, np.random.default_rng(4))
    assert counts.sum() == 5000
    assert len(edges) == 25


def test_histogram_degenerate_single_bin():
    n, m = 3, 1
    values = np.zeros((1 << n, m))
    values[0b111, 0] = 2.5  # complete assignments always hit the full bundle
    table = ValueTable(n, m, values)
    edges, counts = value_histogram(table, 200, 10, np.random.default_rng(5))
    occupied = np.flatnonzero(counts)
    assert len(occupied) == 1
    assert counts[occupied[0]] == 200
    assert edges[occupied[0]] <= 2.5 <= edges[occupied[0] + 1]


@pytest.mark.parametrize("n, m", [(1, 1), (5, 3), (9, 7), (12, 10), (8, 12)])
def test_sampled_values_match_per_element_reference_bitwise(n, m):
    table = npd_table(n, m, n * m)
    got = bench._sampled_values(table, 1500, np.random.default_rng(m))
    expected = reference_sampled_values(table, 1500, np.random.default_rng(m))
    assert got.tobytes() == expected.tobytes()


def test_sampled_values_peak_memory_is_no_higher_than_before():
    # before, a batch held its int8 labels, (count, m) int64 masks, a row
    # index, the (count, m) gathered entries and the sums at once:
    # count * (n + 16m + 16) bytes. The labels and the row offsets are now
    # freed before the gather, so the peak is about count * (16m + 8).
    n, m, count = 12, 10, 50_000
    table = npd_table(n, m, 3)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        bench._sampled_values(table, count, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= count * (n + 16 * m + 16)


def test_npd_sample_mean_is_m_mu():
    # each assignment value sums m table entries with mean mu, so the
    # sampled mean sits near m*mu; for a fixed table the residual is the
    # bundle-weighted average of the entry noise, whose sd is
    # sqrt(m * sigma^2 * ((1+(m-1)^2)/m^2)^n) (0.019 here), not just MC noise
    from ucalab.bench import _sampled_values

    table = npd_table(10, 4, 6, mu=1.0, sigma=0.1)
    vals = _sampled_values(table, 200_000, np.random.default_rng(7))
    assert float(vals.mean()) == pytest.approx(4.0, abs=0.08)

    tight = npd_table(10, 4, 6, mu=1.0, sigma=0.005)
    vals = _sampled_values(tight, 200_000, np.random.default_rng(7))
    assert float(vals.mean()) == pytest.approx(4.0, abs=0.01)


def test_prediction_report_perfect_stub_is_zero_error():
    table = npd_table(6, 2, 8)
    oracle = lambda s: exact_value_to_go(s, table)  # noqa: E731
    report = prediction_error_report(oracle, table, [1, 2, 3], 20, np.random.default_rng(9))
    for row in report.rows:
        assert row.mean_error == 0.0
        assert row.std_error == 0.0
        assert row.n_samples == 20
    assert all(t == p for t, p in report.scatter)


def test_prediction_report_current_value_stub_statistics():
    # predicting V(S) itself gives errors V* - V(S); replaying the sampling
    # stream reproduces the report's statistics exactly
    table = npd_table(7, 3, 10)
    stub = lambda s: value_of(s, table)  # noqa: E731
    levels, samples = [1, 2], 40
    report = prediction_error_report(stub, table, levels, samples, np.random.default_rng(11))

    from ucalab.dataset import sample_partial_labels

    rows = sample_partial_labels(table.n, table.m, levels, samples, np.random.default_rng(11))
    for row, labels in zip(report.rows, rows.reshape(len(levels), samples, table.n)):
        errors = []
        for s in map(PartialAssignment.from_labels, labels):
            true = float(all_completion_values(table, s).max())
            errors.append(true - value_of(s, table))
        assert row.mean_error == pytest.approx(float(np.mean(errors)), rel=1e-12)
        assert row.std_error == pytest.approx(float(np.std(errors, ddof=1)), rel=1e-12)
        assert row.mean_error > 0  # completing with fresh max beats standing pat on average


def test_prediction_report_generalization_split():
    # a model trained on 1..2 unassigned elements is evaluated on 3..4,
    # probing generalization beyond its training levels
    from ucalab.dataset import DatasetConfig, build_dataset, split_dataset
    from ucalab.neural import TrainConfig, predict_value_to_go, train

    spec = ProblemSpec(8, 2, 90)
    table = npd_table(8, 2, 90)
    pairs = build_dataset(spec, table, DatasetConfig(kappa=2, pairs_per_level=200, seed=91))
    train_pairs, test_pairs = split_dataset(pairs, 0.1, np.random.default_rng(92))
    model, _ = train(train_pairs, test_pairs, TrainConfig(1e-3, 32, 30, seed=93), 8, 2)
    predict = lambda s: predict_value_to_go(model, s, table)  # noqa: E731
    report = prediction_error_report(predict, table, [3, 4], 30, np.random.default_rng(94))
    assert [row.unassigned for row in report.rows] == [3, 4]
    for row in report.rows:
        assert np.isfinite(row.mean_error) and np.isfinite(row.std_error)
    assert len(report.scatter) == 60


def test_prediction_report_budget_error():
    table = npd_table(8, 3, 12)
    stub = lambda s: 0.0  # noqa: E731
    with pytest.raises(BudgetExceededError, match="unassigned"):
        prediction_error_report(stub, table, [6], 100, np.random.default_rng(13), node_budget=1000)


def test_prediction_report_files(tmp_path):
    table = npd_table(5, 2, 14)
    stub = lambda s: 1.0  # noqa: E731
    report = prediction_error_report(stub, table, [1, 2], 10, np.random.default_rng(15))
    paths = write_prediction_report(report, tmp_path)
    for p in paths:
        assert p.exists()
    errors_csv = (tmp_path / "prediction_errors.csv").read_text().splitlines()
    assert errors_csv[0] == "unassigned,mean_error,std_error,n_samples"
    assert len(errors_csv) == 3
    svg = (tmp_path / "prediction_errors.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def make_estimators(tables, with_neural=False):
    ests = {
        "current": [Estimator.current_value()] * len(tables),
        "random": [Estimator.random()] * len(tables),
    }
    return ests


def test_curves_report_shapes_and_optimum_bound():
    tables = [npd_table(7, 3, 20 + i) for i in range(3)]
    checkpoints = [5, 20, 60]
    report = benchmark_curves(tables, make_estimators(tables), 60, checkpoints, master_seed=1)
    assert report.n_instances == 3
    assert report.optimum_mean is not None
    per_est = {}
    for row in report.rows:
        assert row.ci_low <= row.mean <= row.ci_high
        assert row.mean <= report.optimum_mean + 1e-12
        per_est.setdefault(row.estimator, []).append(row.mean)
    for means in per_est.values():
        assert means == sorted(means)  # running max means rise with checkpoints
    # optimum mean matches solving each instance
    optima = [solve_exact(t)[1] for t in tables]
    assert report.optimum_mean == pytest.approx(float(np.mean(optima)), rel=1e-12)


def test_curves_identical_instance_values_have_zero_ci():
    # with one alternative every rollout returns the one complete assignment,
    # so all instances of the same table produce identical best values
    table = npd_table(6, 1, 30)
    tables = [table, table, table]
    report = benchmark_curves(tables, make_estimators(tables), 20, [20], master_seed=2)
    for row in report.rows:
        assert row.ci_high - row.ci_low == pytest.approx(0.0, abs=1e-12)


def test_curves_optimum_unavailable_under_budget():
    tables = [npd_table(8, 3, 40)]
    report = benchmark_curves(tables, make_estimators(tables), 5, [5], master_seed=3, node_budget=100)
    assert report.optimum_mean is None


def test_curves_csv_deterministic_and_marker(tmp_path):
    tables = [npd_table(6, 2, 50 + i) for i in range(2)]
    report = benchmark_curves(tables, make_estimators(tables), 25, [5, 25], master_seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curves_report(report, p1, tmp_path / "a.svg")
    report2 = benchmark_curves(tables, make_estimators(tables), 25, [5, 25], master_seed=4)
    write_curves_report(report2, p2, tmp_path / "b.svg")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "estimator,checkpoint,mean,ci_low,ci_high" in text
    assert "optimum," in text
    svg = (tmp_path / "a.svg").read_text()
    assert svg.startswith("<svg") and "optimum" in svg

    no_opt = benchmark_curves(tables, make_estimators(tables), 5, [5], master_seed=4, node_budget=10)
    p3 = tmp_path / "c.csv"
    write_curves_report(no_opt, p3, tmp_path / "c.svg")
    assert "# optimum unavailable at this scale" in p3.read_text()


def test_curves_estimator_instance_count_validated():
    tables = [npd_table(5, 2, 70), npd_table(5, 2, 71)]
    with pytest.raises(ValueError):
        benchmark_curves(tables, {"current": [Estimator.current_value()]}, 5, [5], master_seed=6)


def test_histogram_files(tmp_path):
    table = npd_table(5, 2, 80)
    edges, counts = value_histogram(table, 1000, 12, np.random.default_rng(16))
    write_histogram(tmp_path / "h.csv", tmp_path / "h.svg", edges, counts)
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[0] == "bin_low,bin_high,count"
    assert len(lines) == 13
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 1000
