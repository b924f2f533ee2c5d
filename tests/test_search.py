import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bundle_masks, reference_best_of_n

from ucalab import search
from ucalab.core import PartialAssignment, ProblemSpec, ValueTable, expand_children, value_of
from ucalab.exact import solve_exact
from ucalab.neural import init_model
from ucalab.search import Estimator, best_of_n, greedy_rollout
from ucalab.valuegen import NpdParams, generate_npd


def npd_table(n, m, seed):
    return generate_npd(ProblemSpec(n, m, seed), NpdParams(mu=0.0, sigma=1.0))


def additive_table(n, m, rng):
    """v(C, t) = sum of per-element integer weights, so greedy is exact."""
    w = rng.integers(-8, 9, size=(n, m)).astype(np.float64)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    return ValueTable(n, m, bits @ w), w


def test_estimator_validation():
    with pytest.raises(ValueError):
        Estimator("bogus")
    with pytest.raises(ValueError):
        Estimator("neural")
    assert Estimator.current_value().kind == "current"
    assert Estimator.random().kind == "random"


def test_single_alternative_rollout_is_unique_assignment():
    table = npd_table(4, 1, 0)
    for est in (Estimator.current_value(), Estimator.random()):
        s = greedy_rollout(table, est, np.random.default_rng(1))
        assert s.labels == (0, 0, 0, 0)
    # on a constant table every child ties, and ties go to alternative 0
    flat = ValueTable(4, 3, np.ones((1 << 4, 3)))
    assert greedy_rollout(flat, Estimator.current_value(), np.random.default_rng(1)).labels == (0, 0, 0, 0)


def test_rollouts_always_complete_and_disjoint():
    table = npd_table(6, 3, 2)
    model = init_model(6, 3, np.random.default_rng(3))
    estimators = [Estimator.current_value(), Estimator.random(), Estimator.neural(model)]
    rng = np.random.default_rng(4)
    for est in estimators:
        for _ in range(10):
            s = greedy_rollout(table, est, rng)
            assert s.is_complete
            union = 0
            for mask in bundle_masks(s, 3):
                assert union & mask == 0
                union |= mask
            assert union == (1 << 6) - 1


def test_random_estimator_samples_uniformly():
    table = npd_table(3, 2, 5)
    rng = np.random.default_rng(6)
    draws = 20_000
    counts = Counter(greedy_rollout(table, Estimator.random(), rng).labels for _ in range(draws))
    assert len(counts) == 8
    p = 1.0 / 8
    sigma = math.sqrt(p * (1 - p) / draws)
    for labels, count in counts.items():
        assert abs(count / draws - p) < 4 * sigma, labels


def test_current_value_exact_on_additive_tables():
    rng = np.random.default_rng(7)
    for trial in range(5):
        table, w = additive_table(8, 3, rng)
        s = greedy_rollout(table, Estimator.current_value(), np.random.default_rng(trial))
        optimum = float(w.max(axis=1).sum())
        assert value_of(s, table) == optimum


def test_current_value_commits_locally_optimal_children():
    table = npd_table(7, 3, 8)
    seed = 99
    rollout = greedy_rollout(table, Estimator.current_value(), np.random.default_rng(seed))
    # replay: the rollout's only random draw is the element order
    order = np.random.default_rng(seed).permutation(7)
    s = PartialAssignment.empty(7)
    for e in order:
        children = expand_children(s, int(e), 3)
        child_values = [value_of(c, table) for c in children]
        pick = int(np.argmax(child_values))
        s = children[pick]
    assert s.labels == rollout.labels


def test_neural_rollout_scores_match_batched_prediction():
    # the committed label must equal the argmax of per-child predictions
    from ucalab.neural import predict_value_to_go

    table = npd_table(5, 2, 9)
    model = init_model(5, 2, np.random.default_rng(10))
    model.value_norm = (0.0, 2.0)
    model.target_norm = (0.5, 1.5)
    seed = 11
    rollout = greedy_rollout(table, Estimator.neural(model), np.random.default_rng(seed))
    order = np.random.default_rng(seed).permutation(5)
    s = PartialAssignment.empty(5)
    for e in order:
        children = expand_children(s, int(e), 2)
        scores = [predict_value_to_go(model, c, table) for c in children]
        s = children[int(np.argmax(scores))]
    assert s.labels == rollout.labels


def test_best_of_n_single_eval():
    table = npd_table(5, 2, 12)
    result = best_of_n(table, Estimator.random(), 1, [1], np.random.default_rng(13))
    assert result.checkpoints == ((1, result.best_value),)
    assert value_of(result.best_assignment, table) == result.best_value


def test_best_of_n_checkpoints_monotone():
    table = npd_table(6, 3, 14)
    checkpoints = [1, 5, 10, 25, 50]
    result = best_of_n(table, Estimator.random(), 50, checkpoints, np.random.default_rng(15))
    values = [v for _, v in result.checkpoints]
    assert [c for c, _ in result.checkpoints] == checkpoints
    assert values == sorted(values)
    assert values[-1] == result.best_value


def test_best_of_n_bounded_by_exact_optimum():
    table = npd_table(8, 3, 16)
    _, optimum = solve_exact(table)
    result = best_of_n(table, Estimator.random(), 2000, [2000], np.random.default_rng(17))
    assert result.best_value <= optimum


def test_best_of_n_validates_checkpoints():
    table = npd_table(4, 2, 18)
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError):
        best_of_n(table, Estimator.random(), 10, [5, 3], rng)
    with pytest.raises(ValueError):
        best_of_n(table, Estimator.random(), 10, [11], rng)
    with pytest.raises(ValueError):
        best_of_n(table, Estimator.random(), 0, [], rng)
    # 2.5 and 9.9 used to be recorded as checkpoints 2 and 9
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="checkpoints must be integers, got 2.5, 9.9"):
        best_of_n(table, Estimator.random(), 10, [2.5, 9.9], rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="checkpoints must be integers, got nan"):
        search.checked_checkpoints(10, [1, float("nan")])
    assert search.checked_checkpoints(10, [2.0, np.int64(5), 10]) == [2, 5, 10]


def test_neural_estimator_dimension_check():
    table = npd_table(4, 2, 20)
    model = init_model(3, 2, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="model is for n=3, m=2, but the table has n=4, m=2"):
        greedy_rollout(table, Estimator.neural(model), rng)
    assert rng.bit_generator.state == state  # refused before the element order is drawn


def test_serial_determinism():
    table = npd_table(6, 3, 23)
    for est in (Estimator.current_value(), Estimator.random()):
        a = best_of_n(table, est, 40, [10, 40], np.random.default_rng(24))
        b = best_of_n(table, est, 40, [10, 40], np.random.default_rng(24))
        assert a.checkpoints == b.checkpoints
        assert a.best_assignment == b.best_assignment


@st.composite
def rollout_runs(draw):
    """n <= 6, m <= 10 (rollout-full's width), each estimator, and integer
    (tie-heavy), additive or normal tables; n_evals spans several blocks of
    the smaller block sizes."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["integer", "additive", "normal"]))
    if shape == "integer":
        table = ValueTable(n, m, rng.integers(0, 3, size=(1 << n, m)).astype(np.float64))
    elif shape == "additive":
        table = additive_table(n, m, rng)[0]
    else:
        table = ValueTable(n, m, rng.normal(size=(1 << n, m)))
    kind = draw(st.sampled_from(search.ESTIMATOR_KINDS))
    model = None
    if kind == "neural":
        model = init_model(n, m, rng)
        model.value_norm = (float(rng.normal()), float(rng.uniform(0.5, 2.0)))
        model.target_norm = (float(rng.normal()), float(rng.uniform(0.5, 2.0)))
    n_evals = draw(st.integers(1, 12))
    checkpoints = sorted(draw(st.sets(st.integers(1, n_evals))))
    return table, kind, model, n_evals, checkpoints, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("block", [1, 3, search.ROLLOUT_BLOCK])
@settings(max_examples=60, deadline=None)
@given(rollout_runs())
def test_best_of_n_matches_serial_reference_bitwise(block, run):
    table, kind, model, n_evals, checkpoints, seed = run
    estimator = Estimator(kind, model)
    expected_rng = np.random.default_rng(seed)
    best_value, best_labels, recorded = reference_best_of_n(table, kind, model, n_evals, checkpoints, expected_rng)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "ROLLOUT_BLOCK", block)
        result = best_of_n(table, estimator, n_evals, checkpoints, rng)
    assert result.best_value == best_value
    assert result.best_assignment.labels == best_labels
    assert result.checkpoints == recorded
    assert rng.bit_generator.state == expected_rng.bit_generator.state

    first = reference_best_of_n(table, kind, model, 1, [], np.random.default_rng(seed))
    assert greedy_rollout(table, estimator, np.random.default_rng(seed)).labels == first[1]


def traced_peak(table, estimator, n_evals):
    tracemalloc.start()
    try:
        best_of_n(table, estimator, n_evals, [n_evals], np.random.default_rng(25))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_best_of_n_memory_does_not_grow_with_n_evals():
    table = npd_table(10, 4, 26)
    estimator = Estimator.neural(init_model(10, 4, np.random.default_rng(27)))
    one_block = traced_peak(table, estimator, search.ROLLOUT_BLOCK)
    assert traced_peak(table, estimator, 8 * search.ROLLOUT_BLOCK) < 1.5 * one_block
