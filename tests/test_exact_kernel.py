"""Differential tests of both exact kernels (the blocked flat-index
enumeration and the subset DP with its descent) against the independent
oracle, called directly and through the cost rule; of the flat row sums
against numpy's; and bounds on their working memory."""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_completion_values, bundle_masks

from ucalab import exact
from ucalab.core import PartialAssignment, ProblemSpec, UNASSIGNED, ValueTable
from ucalab.exact import DEFAULT_NODE_BUDGET, _row_sums, exact_value_to_go, solve_exact
from ucalab.valuegen import NpdParams, generate_npd


@st.composite
def tables(draw, max_m=9):
    """Tables with m <= max_m and n <= 7, n small enough that m^n <= 4^7;
    m >= 8 takes the pairwise row sum. Small-integer tables make exact ties
    common, and tables of -0.0 make every completion tie at +0.0."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max(k for k in range(1, 8) if m**k <= 4**7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integers", "signed zeros"]))
    if kind == "integers":
        values = rng.integers(0, 3, size=(1 << n, m)).astype(np.float64)
    elif kind == "signed zeros":
        values = np.full((1 << n, m), -0.0)
    else:
        values = rng.normal(size=(1 << n, m))
    return ValueTable(n, m, values)


# Blocks smaller than the production size split even small tables into many
# blocks, so ties between blocks are exercised too.
block_sizes = st.sampled_from([1, 7, exact.BLOCK_COMPLETIONS])


@contextmanager
def block_completions(block):
    """BLOCK_COMPLETIONS patched to `block`. The cached plans read it, so both
    plan caches are cleared on entry and on exit: no plan made under one
    block size is used under another, in this test or a later one."""
    plans = (exact._value_plan, exact._solve_plan)
    for plan in plans:
        plan.cache_clear()
    try:
        with mock.patch.object(exact, "BLOCK_COMPLETIONS", block):
            yield
    finally:
        for plan in plans:
            plan.cache_clear()


@settings(max_examples=150, deadline=None)
@given(tables(), block_sizes)
def test_solve_exact_is_first_argmax_of_flat_enumeration(table, block):
    flat = all_completion_values(table, PartialAssignment.empty(table.n))
    with block_completions(block):
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
    with block_completions(block):
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


def first_optimum(table):
    """The oracle's best value and its first labels in lexicographic order."""
    flat = all_completion_values(table, PartialAssignment.empty(table.n))
    first = np.unravel_index(int(np.argmax(flat)), (table.m,) * table.n)
    return flat.max(), [int(x) for x in first]


def free_mask(assignment):
    return ((1 << assignment.n) - 1) ^ assignment.assigned_mask


# Pair tables over fewer low elements than production split the DP's
# subsets into high and low parts even on small tables.
low_bits = st.sampled_from([0, 1, 2, exact.LOW_BITS])


@settings(max_examples=150, deadline=None)
@given(tables(), block_sizes, st.data())
def test_flat_kernel_matches_oracle_bitwise(table, block, data):
    labels = data.draw(st.lists(st.integers(UNASSIGNED, table.m - 1), min_size=table.n, max_size=table.n))
    assignment = PartialAssignment.from_labels(labels)
    flat = all_completion_values(table, assignment)
    with block_completions(block):
        value, where = exact._flat_search(table.values, assignment.bundle_indices(table.m), free_mask(assignment))
    assert np.float64(value).tobytes() == flat.max().tobytes()
    assert where == int(np.argmax(flat))


@settings(max_examples=150, deadline=None)
@given(tables(max_m=exact.DP_MAX_ALTERNATIVES), low_bits, st.data())
def test_dp_value_matches_oracle_bitwise(table, low, data):
    labels = data.draw(st.lists(st.integers(UNASSIGNED, table.m - 1), min_size=table.n, max_size=table.n))
    assignment = PartialAssignment.from_labels(labels)
    expected = all_completion_values(table, assignment).max()
    with mock.patch.object(exact, "LOW_BITS", low):
        value = exact._dp_value(table.values, assignment.bundle_indices(table.m), free_mask(assignment))
    assert np.float64(value).tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(tables(max_m=exact.DP_MAX_ALTERNATIVES), low_bits, st.data())
def test_dp_descent_returns_the_first_optimum(table, low, data):
    # finish = 0 is the descent alone, finish = n the flat kernel alone, and
    # values between hand the tail to the flat kernel
    finish = data.draw(st.integers(0, table.n))
    value, first = first_optimum(table)
    with mock.patch.object(exact, "LOW_BITS", low):
        labels, got = exact._solve(table.values, table.m, table.n, finish)
    assert np.float64(got).tobytes() == value.tobytes()
    assert labels == first


@pytest.mark.parametrize("m", [8, 9, 12])
def test_eight_or_more_alternatives_run_the_flat_kernel(m, monkeypatch):
    # numpy sums 8 or more entries with eight accumulators, which the DP does not follow
    def refuse(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(exact, "_dp_value", refuse)
    table = generate_npd(ProblemSpec(4, m, m), NpdParams(mu=0.0, sigma=1.0))
    value, first = first_optimum(table)
    assignment, got = solve_exact(table)
    assert list(assignment.labels) == first and got == value
    assert exact_value_to_go(PartialAssignment.empty(4), table) == value
    assert all(not exact._value_plan(m, u)[0] for u in range(31))


def test_planted_optimum_at_fourteen_elements():
    # entries in [0, 1) and a bonus above m on the m bundles of one
    # assignment: any other assignment changes at least two of those bundles
    # and so falls short of it; 4^14 completions are out of the oracle's
    # reach, and the solve runs under the default budget
    n, m = 14, 4
    rng = np.random.default_rng(14)
    values = rng.random((1 << n, m))
    planted = PartialAssignment.from_labels(rng.integers(0, m, n))
    masks = bundle_masks(planted, m)
    values[masks, np.arange(m)] += m + 1.0
    table = ValueTable(n, m, values)
    assignment, value = solve_exact(table)
    assert assignment == planted
    expected = table.values[np.array([masks]), np.arange(m)].sum(axis=1)[0]
    assert np.float64(value).tobytes() == expected.tobytes()


def test_default_budget_admits_sixteen_elements_and_refuses_the_paper_scale():
    assert exact._solve_plan(4, 16)[1] <= DEFAULT_NODE_BUDGET
    assert exact._solve_plan(10, 20)[1] > DEFAULT_NODE_BUDGET


def test_a_wide_search_leaves_nothing_allocated():
    # the flat kernel's step diagonals used to be cached for every m, so 8 MB
    # stayed allocated after a search at m = 1000 returned; now only tables of
    # up to 16 alternatives keep theirs
    table = ValueTable(1, 1000, np.random.default_rng(0).normal(size=(2, 1000)))
    tracemalloc.start()
    try:
        solve_exact(table)
        exact_value_to_go(PartialAssignment.empty(1), table)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 8_000_000
    assert current < 2**16


def evict_every_plan():
    """Fill the offsets cache with PLANS entries no search asks for (the DP's
    offsets for m = 1), so every other entry is evicted."""
    for free in range(exact.PLANS):
        exact._cached_offsets(1, free, True)
    assert exact._cached_offsets.cache_info().currsize == exact.PLANS


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_cold_warm_and_evicted_plans_give_the_oracles_bits(table, data):
    labels = data.draw(st.lists(st.integers(UNASSIGNED, table.m - 1), min_size=table.n, max_size=table.n))
    assignment = PartialAssignment.from_labels(labels)
    expected = all_completion_values(table, assignment).max()
    optimum, first = first_optimum(table)
    exact._cached_offsets.cache_clear()
    # cold, then warm (the same free sets again), then after eviction
    for state in ("cold", "warm", "evicted"):
        if state == "evicted":
            evict_every_plan()
        value = exact_value_to_go(assignment, table)
        solved, best = solve_exact(table)
        assert np.float64(value).tobytes() == expected.tobytes(), state
        assert np.float64(best).tobytes() == optimum.tobytes(), state
        assert list(solved.labels) == first, state


def test_cached_offsets_are_shared_and_read_only():
    exact._cached_offsets.cache_clear()
    for m, free, dp in ((4, 0b1011, False), (4, 0b1011, True), (2, 0b1111111, False), (10, 0b11, False)):
        for _ in range(2):
            exact._indices(np.arange(m), free, dp)
        offsets = exact._cached_offsets(m, free, dp)
        assert exact._cached_offsets.cache_info()[:4] == (2, 1, exact.PLANS, 1)  # hits, misses, maxsize, size
        assert not offsets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            offsets[...] = 0
        exact._cached_offsets.cache_clear()
    # 4^7 completions take 128 KiB of offsets: built per call, not kept
    exact._indices(np.arange(4), 0b1111111, False)
    assert exact._cached_offsets.cache_info().currsize == 0


def resident_after(work):
    """Bytes that `work` leaves allocated, the offsets cache cleared first."""
    exact._cached_offsets.cache_clear()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_cached_plans_stay_within_the_stated_bound():
    n, m = 12, 4
    table = generate_npd(ProblemSpec(n, m, 12), NpdParams(mu=0.0, sigma=1.0))
    labels = np.random.default_rng(12).integers(0, m, size=(1 << n, n))
    free = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    labels[free == 1] = UNASSIGNED
    records = [PartialAssignment(tuple(int(x) for x in row)) for row in labels]

    def label_all():
        for assignment in records:
            exact_value_to_go(assignment, table)

    label_all()  # the DP's pair tables stay cached apart from the plans
    assert resident_after(label_all) <= exact.PLAN_CACHE_BYTES <= 4 * 2**20
    assert exact._cached_offsets.cache_info().currsize == exact.PLANS
    # the worst case, whichever kernel labels take: every entry as large as
    # any kept, the flat kernel's 4^5 offsets of four free elements
    masks = [mask for mask in range(1 << n) if mask.bit_count() == 4][: exact.PLANS]
    resident = resident_after(lambda: [exact._cached_offsets(m, mask, False) for mask in masks])
    assert exact.PLANS * exact.PLAN_BYTES < resident <= exact.PLAN_CACHE_BYTES


@pytest.mark.parametrize(
    "n, m, unassigned", [(1, 300, 1), (7, 4, 7), (7, 4, 6), (7, 4, 4), (5, 10, 4), (10, 4, 10), (10, 3, 9)]
)
def test_counted_search_bytes_cover_a_cold_cache_peak(n, m, unassigned):
    # a cold search also builds the offsets and pair tables it then keeps
    exact._cached_offsets.cache_clear()
    exact._subset_pairs.cache_clear()
    test_counted_search_bytes_cover_the_peak(n, m, unassigned)
