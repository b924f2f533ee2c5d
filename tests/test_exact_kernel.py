"""Differential tests of the blocked flat-index exact kernel against the
independent oracle, of its row sums against numpy's, plus a bound on its
working memory."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_completion_values

from ucalab import exact
from ucalab.core import PartialAssignment, ProblemSpec, UNASSIGNED, ValueTable
from ucalab.exact import _row_sums, exact_value_to_go, solve_exact
from ucalab.valuegen import NpdParams, generate_npd


@st.composite
def tables(draw):
    """Tables with m <= 9 and n <= 7, n small enough that m^n <= 4^7; m >= 8
    takes the pairwise row sum. Small-integer tables make exact ties common."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, max(k for k in range(1, 8) if m**k <= 4**7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(0, 3, size=(1 << n, m)).astype(np.float64)
    else:
        values = rng.normal(size=(1 << n, m))
    return ValueTable(n, m, values)


# Blocks smaller than the production size split even small tables into many
# blocks, so ties between blocks are exercised too.
block_sizes = st.sampled_from([1, 7, exact.BLOCK_COMPLETIONS])


@settings(max_examples=150, deadline=None)
@given(tables(), block_sizes)
def test_solve_exact_is_first_argmax_of_flat_enumeration(table, block):
    flat = all_completion_values(table, PartialAssignment.empty(table.n))
    with mock.patch.object(exact, "BLOCK_COMPLETIONS", block):
        assignment, value = solve_exact(table)
    assert value == flat.max()
    first = np.unravel_index(int(np.argmax(flat)), (table.m,) * table.n)
    assert assignment.labels == tuple(int(x) for x in first)


@settings(max_examples=150, deadline=None)
@given(tables(), block_sizes, st.data())
def test_value_to_go_matches_oracle_bitwise(table, block, data):
    labels = data.draw(st.lists(st.integers(UNASSIGNED, table.m - 1), min_size=table.n, max_size=table.n))
    assignment = PartialAssignment.from_labels(labels)
    expected = all_completion_values(table, assignment).max()
    with mock.patch.object(exact, "BLOCK_COMPLETIONS", block):
        assert exact_value_to_go(assignment, table) == expected


@pytest.mark.parametrize("m", range(1, 17))
def test_row_sums_equal_numpy_row_sums_bitwise(m):
    # numpy adds a row of fewer than 8 entries in order from 0.0, which the
    # kernel's sum over axis 0 repeats; signed zeros and wide magnitudes
    # make any other order or start show
    rng = np.random.default_rng(m)
    for rows in (1, 5, 300, 5000):
        leaf = rng.normal(size=(rows, m)) * 10.0 ** rng.integers(-12, 12, size=(rows, m))
        leaf[: rows // 4] = -0.0
        leaf[rows // 4 : rows // 2, 0] = -0.0
        expected = leaf.sum(axis=1)
        got = _row_sums(np.ascontiguousarray(leaf.T))
        assert got.tobytes() == expected.tobytes()


def test_solve_exact_memory_stays_within_one_block():
    # 4^11 completions unblocked would need over 130 MB of masks and values
    table = generate_npd(ProblemSpec(11, 4, 3), NpdParams(mu=0.0, sigma=1.0))
    tracemalloc.start()
    try:
        solve_exact(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_search_over_physical_memory_is_refused_before_allocating():
    # n = 1, m = 2^20 used to ask numpy for 8 TiB of step matrices and prefix table
    table = ValueTable(1, 1 << 20, np.zeros((2, 1 << 20)))
    tracemalloc.start()
    try:
        for search in (solve_exact, lambda t: exact_value_to_go(PartialAssignment.empty(1), t)):
            with pytest.raises(ValueError, match="exact search at depth 1, branching 1048576 needs .* bytes, more than"):
                search(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n, m, unassigned", [(1, 300, 1), (7, 4, 7), (7, 4, 6)])
def test_counted_search_bytes_cover_the_peak(n, m, unassigned):
    # the memory check counts at least what the search then allocates
    table = ValueTable(n, m, np.random.default_rng(n * m).normal(size=(1 << n, m)))
    assignment = PartialAssignment((UNASSIGNED,) * unassigned + (0,) * (n - unassigned))
    counted = []
    with mock.patch.object(exact, "check_memory", lambda needed, what: counted.append(needed)):
        tracemalloc.start()
        try:
            if unassigned < n:
                exact_value_to_go(assignment, table)
            else:
                solve_exact(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(counted) == 1 and counted[0] >= peak
