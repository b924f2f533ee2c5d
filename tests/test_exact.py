import numpy as np
import pytest

from oracles import all_completion_values, brute_force_best

from ucalab.core import (
    PartialAssignment,
    ProblemSpec,
    expand_children,
    value_of,
)
from ucalab.exact import (
    BudgetExceededError,
    dfs_node_count,
    exact_value_to_go,
    solve_exact,
)
from ucalab.search import Estimator, greedy_rollout
from ucalab.valuegen import NpdParams, TrapParams, generate_npd, generate_trap, trap_mean


def npd_table(n, m, seed):
    return generate_npd(ProblemSpec(n, m, seed), NpdParams(mu=0.0, sigma=1.0))


def test_complete_assignment_is_base_case():
    table = npd_table(4, 3, 1)
    s = PartialAssignment.from_labels([0, 2, 1, 1])
    assert exact_value_to_go(s, table) == value_of(s, table)


def test_single_free_element_expansion():
    table = npd_table(1, 2, 2)
    v = table.values
    expected = max(v[1, 0] + v[0, 1], v[0, 0] + v[1, 1])
    assert exact_value_to_go(PartialAssignment.empty(1), table) == expected


def test_matches_flat_enumeration_from_root():
    table = npd_table(8, 3, 3)
    got = exact_value_to_go(PartialAssignment.empty(8), table)
    assert got == brute_force_best(table)


def test_matches_flat_enumeration_from_partial():
    rng = np.random.default_rng(4)
    table = npd_table(9, 3, 5)
    for _ in range(25):
        labels = [int(x) for x in rng.integers(-1, 3, size=9)]
        s = PartialAssignment.from_labels(labels)
        assert exact_value_to_go(s, table) == float(all_completion_values(table, s).max())


def test_bellman_consistency_and_monotone_dominance():
    rng = np.random.default_rng(9)
    for seed in range(5):
        n, m = 6, 3
        table = npd_table(n, m, 100 + seed)
        s = PartialAssignment.empty(n)
        for e in range(n):
            parent = exact_value_to_go(s, table)
            children = expand_children(s, e, m)
            child_values = [exact_value_to_go(c, table) for c in children]
            assert parent == max(child_values)
            for cv in child_values:
                assert parent >= cv
            s = children[int(rng.integers(m))]


def test_solve_exact_equals_enumeration_and_value_to_go():
    for seed in (0, 1, 2):
        table = npd_table(7, 3, 40 + seed)
        assignment, value = solve_exact(table)
        assert assignment.is_complete
        assert value == brute_force_best(table)
        assert value == exact_value_to_go(PartialAssignment.empty(7), table)
        assert value_of(assignment, table) == pytest.approx(value, abs=1e-12)


def test_solve_exact_single_alternative():
    table = npd_table(5, 1, 6)
    assignment, value = solve_exact(table)
    assert assignment.labels == (0,) * 5
    assert value == table.values[0b11111, 0]


def test_solve_exact_trap_grand_bundle():
    p = TrapParams(sigma=0.0, delta=0.1, tau_threshold=4.0, epsilon=0.1)
    table = generate_trap(ProblemSpec(8, 3, seed=0), p)
    assignment, value = solve_exact(table)
    assert value == brute_force_best(table)
    # the super-quadratic bonus makes one grand bundle beat every split
    sizes = sorted(int(m).bit_count() for m in assignment.bundle_masks(3))
    assert sizes == [0, 0, 8]
    assert value == trap_mean(8, p)


def test_solve_exact_dominates_greedy_rollout():
    for seed in range(3):
        table = npd_table(8, 3, 60 + seed)
        _, optimum = solve_exact(table)
        rollout = greedy_rollout(table, Estimator.current_value(), np.random.default_rng(seed))
        assert optimum >= value_of(rollout, table)


def test_budget_checked_before_search():
    table = npd_table(8, 3, 70)
    needed = dfs_node_count(3, 8)
    with pytest.raises(BudgetExceededError):
        exact_value_to_go(PartialAssignment.empty(8), table, node_budget=needed - 1)
    with pytest.raises(BudgetExceededError):
        solve_exact(table, node_budget=10)
    # exactly enough nodes is accepted
    assert exact_value_to_go(PartialAssignment.empty(8), table, node_budget=needed) == brute_force_best(table)


def test_dfs_node_count():
    assert dfs_node_count(1, 4) == 5
    assert dfs_node_count(3, 2) == 1 + 3 + 9
    assert dfs_node_count(10, 3) == 1111
