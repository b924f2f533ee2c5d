"""Differential tests of the blocked flat-enumeration exact kernel against
the independent oracle, plus a bound on its working memory."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_completion_values

from ucalab import exact
from ucalab.core import PartialAssignment, ProblemSpec, UNASSIGNED, ValueTable
from ucalab.exact import exact_value_to_go, solve_exact
from ucalab.valuegen import NpdParams, generate_npd


@st.composite
def tables(draw):
    """Tables with n <= 7, m <= 4; small-integer tables make exact ties common."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 4))
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
