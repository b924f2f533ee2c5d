"""Exact optima and value-to-go, by one of two exhaustive kernels.

The value-to-go of a partial assignment is the best total value over all
m^u completions of its u free elements, each summed in bundle order as
numpy's `.sum(axis=1)` sums a completion row of the flat-enumeration
oracles, so results are bitwise equal to them. Two kernels compute it:

* flat: every completion is enumerated in lexicographic label order, as
  blocks of flat table indices. Entry (mask, t) is element mask·m + t of
  `values.reshape(-1)`, and putting element e in bundle t adds m·2^e to
  it. When all completions fit in one block they are one `take` and a row
  sum; otherwise each block is one add of leading-element prefixes to an
  inner block of the trailing elements into a reused index buffer, one
  `take` and a row sum. Cost: m^u completions.
* subset DP (2 <= m <= 7): f_t(S) = max over T ⊆ S of f_{t-1}(S \\ T) + v_t(T),
  over subsets S of the free elements, where v_t(T) is bundle t's entry
  with T added to it (Rahwan & Jennings, AAMAS 2008; Präntare & Heintz,
  JAAMAS 2020). Below 8 entries numpy adds a row in order from +0.0, so
  starting from v_0 + 0.0 and adding bundles in column order rounds every
  completion as the row sum does, and as rounding is monotone the best sum
  is the sum with the best prefix. Cost: (m - 2)·3^u + 2·2^u updates. Wider
  tables sum rows with eight accumulators, which this DP does not follow,
  so they stay flat, as do tables of one alternative, which have one
  completion.

`solve_exact` returns the first optimum in lexicographic label order. On the
DP it finds it by descent: for each element in index order it keeps the
first label whose best completion still equals the optimum, and hands the
last few elements to the flat kernel when that is cheaper.

Both kernels read the table at the bundles' start indices plus offsets that
depend only on m and the free elements: the flat kernel's completions, or
the DP's subsets. Offsets of at most PLAN_BYTES are built once and kept in a
bounded LRU (`_cached_offsets`); larger ones are built per call.

Each call runs the kernel its modelled time picks (`_flat_time`,
`_dp_time`), and its budget is that kernel's work units: completions, DP
updates, or for a solve on the DP both, counting every descent step as if
it tried m - 1 labels. The budget and the memory check (`core.check_memory`)
are both made before any work.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from .core import UNASSIGNED, PartialAssignment, ValueTable, check_memory

DEFAULT_NODE_BUDGET = 2**28
BLOCK_COMPLETIONS = 4096
# The DP layer's pair table covers at most this many low free elements (3^9
# pairs); higher elements are looped over in Python, one block of pairs each.
LOW_BITS = 9
# numpy sums a row of fewer than 8 entries in order, which the DP follows.
DP_MAX_ALTERNATIVES = 7
# Elements numpy's iterator buffers per operand, read once per process.
_UFUNC_BUFFER = np.getbufsize()
# `_cached_offsets` keeps PLANS offset arrays of at most PLAN_BYTES each, with
# under 1 KiB of Python objects per entry: PLAN_CACHE_BYTES (3.9 MiB) at most.
PLAN_BYTES = 8192
PLANS = 448
PLAN_CACHE_BYTES = PLANS * (PLAN_BYTES + 1024)


class BudgetExceededError(RuntimeError):
    """Raised when a search would do more work than the caller allowed."""

    def __init__(self, needed: int, budget: int, context: str = "") -> None:
        where = f" ({context})" if context else ""
        super().__init__(f"search needs {needed} work units, budget is {budget}{where}")


def _dp_updates(m: int, u: int) -> int:
    """DP work units: the first and last layers take 2^u updates each, every
    layer between them one per pair T ⊆ S, 3^u."""
    return max(m - 2, 0) * 3**u + min(m, 2) * 2**u


# Modelled kernel times in microseconds, fitted to warm-cache timings on a
# 2-core VM (CHANGES.md has the table): a per-call part; a part per free
# element whose offsets are built per call, or per DP layer; a part per table
# entry read, or per DP update (more above LOW_BITS elements, where the pair
# table no longer covers a layer); and for the flat kernel a part per block,
# and for a search of several blocks a part per alternative, for the block
# arrays it allocates.
def _flat_time(m: int, u: int) -> float:
    split = _split(m, u)
    built = sum(k for k in (split, u - split) if 8 * m ** (k + 1) > PLAN_BYTES)
    width = m ** (u - split)
    blocks = -(-(m**u) // (BLOCK_COMPLETIONS // width * width))
    return 4.6 + 3 * built + 0.0023 * m ** (u + 1) + 0.6 * blocks + (4.7 * m if split else 0)


def _dp_time(m: int, u: int) -> float:
    per_update = 0.006 if u > LOW_BITS else 0.0032
    return 5 + 2.6 * max(m - 2, 0) + per_update * _dp_updates(m, u)


@lru_cache(maxsize=1024)
def _value_plan(m: int, u: int) -> tuple[bool, int, int]:
    """Whether a value-to-go with u free elements runs on the DP, and the work
    units and bytes of the kernel that runs it."""
    if 2 <= m <= DP_MAX_ALTERNATIVES and _dp_time(m, u) < _flat_time(m, u):
        return True, _dp_updates(m, u), _dp_bytes(m, u)
    return False, m**u, _flat_bytes(m, u)


def value_to_go_units(m: int, u: int) -> int:
    """Work units of one value-to-go with u free elements, on the kernel the
    cost rule picks for it."""
    return _value_plan(m, u)[1]


@lru_cache(maxsize=256)
def _solve_plan(m: int, n: int) -> tuple[int, int]:
    """How `solve_exact` runs on an n-element table: the number of trailing
    elements the flat kernel solves (n: no DP at all), and the work units,
    counting m - 1 tried labels per descent step. Its time is modelled as
    5 us of Python per descent step and 0.4·(m - 1) DP calls, the average
    over npd and trap tables (the first label often keeps the optimum)."""
    best = (_flat_time(m, n), n, m**n)
    if 2 <= m <= DP_MAX_ALTERNATIVES:
        time, units = _dp_time(m, n), _dp_updates(m, n)
        for rest in range(n - 1, -1, -1):
            time += 5 + 0.4 * (m - 1) * _dp_time(m, rest)
            units += (m - 1) * _dp_updates(m, rest)
            best = min(best, (time + _flat_time(m, rest), rest, units + m**rest))
    return best[1], best[2]


def _flat_bytes(m: int, u: int) -> int:
    """Bytes the flat kernel holds at once: the steps of each free element,
    the prefix table (with the table it is built from) and the inner block
    (with the table it is built from and its copy offset by the start), the
    index and value buffers (and the values' transposed copy from 8
    alternatives on), the sums, and the two buffers numpy's iterator takes
    for the broadcast add (_UFUNC_BUFFER elements each at most)."""
    split = _split(m, u)
    width = min(BLOCK_COMPLETIONS, m**u)
    copies = 3 if m >= 8 else 2
    buffers = 2 * min(_UFUNC_BUFFER, m * width)
    return 8 * ((u + 1) * m * m + 2 * m ** (split + 1) + 3 * m ** (u - split + 1) + copies * m * width + buffers + width)


def _dp_bytes(m: int, u: int) -> int:
    """Bytes the DP holds at once: subset offsets, the (m, 2^u) indices and
    entries, two layers and the last layer's sums; the pair table over
    `low` elements while it is built (about 8·3^low) or in use with two
    pair-length buffers, and the per-group maxima."""
    low = min(u, LOW_BITS)
    return 8 * ((2 * m + 4) * 2**u + 10 * 3**low + 4 * 2**low)


def _check(units: int, node_budget: int, nbytes: int, m: int, u: int) -> None:
    """Refuse a search over budget, or one whose arrays, plus 64 KiB for
    Python objects and small arrays, exceed physical memory."""
    if units > node_budget:
        raise BudgetExceededError(units, node_budget, f"depth {u}, branching {m}")
    check_memory(nbytes + 2**16, f"exact search at depth {u}, branching {m}")


def _split(m: int, u: int) -> int:
    """Leading free elements in the flat kernel's prefix table: none when all
    m^u completions fit in one block, else half, or as many as leave at most
    BLOCK_COMPLETIONS completions in the inner block."""
    if m**u <= BLOCK_COMPLETIONS:
        return 0
    split = u // 2
    while m ** (u - split) > BLOCK_COMPLETIONS:
        split += 1
    return split


def _build_indices(cols: np.ndarray, m: int, free: int, dp: bool) -> np.ndarray:
    """`cols`, an (m, 1) column of start indices (or a (1, 1) zero for the DP),
    plus a kernel's offsets for the free elements `free` (a bitmask). The DP's
    are m·(sum of T's bits) for every subset T in binary order. The flat
    kernel's are every completion, in lexicographic label order (the lowest
    element slowest), each element added as the new slowest digit, m·bit on
    the diagonal of its (m, m, 1) steps, so numpy's inner loop runs along the
    long axis."""
    bits = [1 << e for e in range(free.bit_length()) if free >> e & 1]
    if dp:
        for bit in bits:
            cols = np.concatenate([cols, cols + m * bit], axis=1)
        return cols
    for bit in reversed(bits):
        steps = np.zeros((m, m, 1), dtype=np.int64)
        steps.reshape(-1)[:: m + 1] = m * bit
        cols = (steps + cols[:, None, :]).reshape(m, -1)
    return cols


# Offsets depend only on (m, free elements, kernel), so those of at most
# PLAN_BYTES are built once, read-only (the entries are shared), and kept in
# an LRU of PLANS entries: at most PLAN_CACHE_BYTES = 448 x 9 KiB (3.9 MiB)
# resident. Larger ones are built per call onto the start indices, as their
# search costs more than building them, so nothing of it stays allocated.
@lru_cache(maxsize=PLANS)
def _cached_offsets(m: int, free: int, dp: bool) -> np.ndarray:
    offsets = _build_indices(np.zeros((1 if dp else m, 1), dtype=np.int64), m, free, dp)
    offsets.setflags(write=False)
    return offsets


def _indices(start: np.ndarray, free: int, dp: bool) -> np.ndarray:
    """The flat indices a kernel reads for the bundles `start` (flat indices)
    and the free elements `free`: (m, 2^u) for the DP, (m, m^u) for the flat
    kernel."""
    m, u = len(start), free.bit_count()
    if (8 << u if dp else 8 * m ** (u + 1)) <= PLAN_BYTES:
        return start[:, None] + _cached_offsets(m, free, dp)
    return _build_indices(start[:, None], m, free, dp)


def _row_sums(block: np.ndarray, out: np.ndarray | None = None, buffer: np.ndarray | None = None) -> np.ndarray:
    """Column totals of an (m, R) block, bitwise `.sum(axis=1)` of its C-ordered
    transpose: numpy adds fewer than 8 entries in order from 0.0, as the sum
    over axis 0 does, and more pairwise, which needs the C-ordered copy; it is
    written into `buffer`, an (R, m) array, when one is given."""
    if len(block) < 8:
        return block.sum(axis=0, out=out)
    if buffer is None:
        buffer = np.empty(block.shape[::-1])
    np.copyto(buffer, block.T)
    return buffer.sum(axis=1, out=out)


def _flat_search(values: np.ndarray, start: np.ndarray, bits: list[int]) -> tuple[float, int]:
    """Best completion value of the bundles `start` (flat indices) over the
    free `bits` (ascending), and the lexicographic index of its first
    occurrence. Blocks of at most BLOCK_COMPLETIONS completions share one
    index, one value and one sum array (and one transposed copy from 8
    alternatives on), so memory grows with m and the prefix table but not
    with the depth."""
    m = len(start)
    split = _split(m, len(bits))
    lead = sum(bits[:split])
    inner = _indices(start, sum(bits) ^ lead, False)
    flat = values.reshape(-1)
    if not split:
        sums = _row_sums(flat.take(inner))
        j = int(sums.argmax())
        return float(sums[j]), j
    outer = _indices(np.zeros(m, dtype=np.int64), lead, False)
    cols, width = outer.shape[1], inner.shape[1]
    per = min(BLOCK_COMPLETIONS // width, cols)
    # one index, value and sum array (and transposed copy) for every block,
    # the last block a contiguous prefix of each
    size = per * width
    index, leaf, sums = np.empty(m * size, dtype=np.int64), np.empty(m * size), np.empty(size)
    buffer = np.empty(m * size) if m >= 8 else None
    best, where = -np.inf, 0
    for s in range(0, cols, per):
        per = min(per, cols - s)
        size = per * width
        block = index[: m * size].reshape(m, per, width)
        np.add(outer[:, s : s + per, None], inner[:, None, :], out=block)
        # the indices are in range by construction, and "clip" writes into
        # `leaf` directly where the default mode would buffer
        block_values = flat.take(block.reshape(m, size), out=leaf[: m * size].reshape(m, size), mode="clip")
        copy = None if buffer is None else buffer[: m * size].reshape(size, m)
        block_sums = _row_sums(block_values, out=sums[:size], buffer=copy)
        j = int(block_sums.argmax())
        if s == 0 or block_sums[j] > best:
            best, where = block_sums[j], s * width + j
    return float(best), where


@cache
def _subset_pairs(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair T ⊆ S of subsets of `bits` elements as index arrays
    (S \\ T, T), grouped by S in ascending order, and each group's start.
    T is the rank j within its group with j's bits dealt out over S's set
    bits. Only bits <= LOW_BITS is asked for, so the cache stays bounded."""
    sets = np.arange(1 << bits)
    widths = 1 << np.bitwise_count(sets).astype(np.intp)
    starts = np.zeros(len(sets), dtype=np.intp)
    np.cumsum(widths[:-1], out=starts[1:])
    s = np.repeat(sets, widths)
    j = np.arange(len(s)) - np.repeat(starts, widths)
    t = np.zeros_like(s)
    for b in range(bits):
        has = (s >> b) & 1
        t |= (j & has) << b
        j >>= has
    return s ^ t, t, starts


def _dp_layer(f: np.ndarray, v: np.ndarray, u: int) -> np.ndarray:
    """g(S) = max over T ⊆ S of f(S \\ T) + v(T), for every subset S of u
    elements. Above LOW_BITS elements, S and T split into high and low
    parts, and each (high S, high T ⊆ high S) pair is one pass over the low
    pair table, maxed into g's block of high S."""
    low = min(u, LOW_BITS)
    rest, part, starts = _subset_pairs(low)
    if low == u:
        sums = f.take(rest)
        sums += v.take(part)
        return np.maximum.reduceat(sums, starts)
    size = 1 << low
    f, v = f.reshape(-1, size), v.reshape(-1, size)
    g = np.empty_like(f)
    sums, other, best = np.empty(len(rest)), np.empty(len(rest)), np.empty(size)
    for high in range(len(g)):
        sub = high
        while True:
            np.take(f[high ^ sub], rest, out=sums)
            np.take(v[sub], part, out=other)
            np.add(sums, other, out=sums)
            if sub == high:
                np.maximum.reduceat(sums, starts, out=g[high])
            else:
                np.maximum.reduceat(sums, starts, out=best)
                np.maximum(g[high], best, out=g[high])
            if sub == 0:
                break
            sub = (sub - 1) & high
    return g.reshape(-1)


def _dp_value(values: np.ndarray, start: np.ndarray, bits: list[int]) -> float:
    """Best completion value of the bundles `start` (flat indices) over the
    free `bits`, by the subset DP; bitwise the flat kernel's for m <= 7."""
    m, u = len(start), len(bits)
    v = values.take(_indices(start, sum(bits), True))
    # the row sum starts from +0.0: adding it turns -0.0 entries into +0.0,
    # which bundle 0 needs and later bundles do not notice, as a partial sum
    # from +0.0 is never -0.0
    v += 0.0
    f = v[0]
    for t in range(1, m - 1):
        f = _dp_layer(f, v[t], u)
    if m == 1:
        return float(f[-1])
    # the last bundle takes the complement of S, which reverses the order
    return float((f[::-1] + v[-1]).max())


def _solve(values: np.ndarray, m: int, n: int, finish: int) -> tuple[list[int], float]:
    """First optimal labels in lexicographic order, and the optimum. Unless
    finish == n, the DP gives the optimum and a descent fixes the leading
    elements; the flat kernel returns the first best completion of the last
    `finish` elements, whose best is the optimum too."""
    bits = [1 << e for e in range(n)]
    start = np.arange(m, dtype=np.int64)
    labels = []
    if finish < n:
        value = _dp_value(values, start, bits)
    for e in range(n - finish):
        for t in range(m):
            trial = start.copy()
            trial[t] += m << e
            if t == m - 1 or _dp_value(values, trial, bits[e + 1 :]) == value:
                break
        start = trial
        labels.append(t)
    if finish:
        value, where = _flat_search(values, start, bits[n - finish :])
        labels.extend(int(x) for x in np.unravel_index(where, (m,) * finish))
    return labels, value


def _best_completion(table: ValueTable, assignment: PartialAssignment, node_budget: int) -> float:
    """Best completion value of `assignment`, on the kernel the cost rule
    picks, refused before any work when that kernel's work units exceed
    node_budget or its arrays physical memory."""
    m = table.m
    bits = [1 << e for e, lab in enumerate(assignment.labels) if lab == UNASSIGNED]
    u = len(bits)
    dp, units, nbytes = _value_plan(m, u)
    _check(units, node_budget, nbytes, m, u)
    start = assignment.bundle_indices(m)
    if dp:
        return _dp_value(table.values, start, bits)
    if _split(m, u):
        return _flat_search(table.values, start, bits)[0]
    # one block, and only its value is asked for, so no argmax
    return float(_row_sums(table.values.take(_indices(start, sum(bits), False))).max())


def exact_value_to_go(
    assignment: PartialAssignment,
    table: ValueTable,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Best achievable total value over all completions of `assignment`."""
    if assignment.n != table.n:
        raise ValueError(f"assignment has {assignment.n} elements, table expects {table.n}")
    return _best_completion(table, assignment, node_budget)


def solve_exact(table: ValueTable, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[PartialAssignment, float]:
    """Optimal complete assignment and its value, by exhaustive search.

    Ties resolve to the first optimum in lexicographic label order.
    """
    n, m = table.n, table.m
    finish, units = _solve_plan(m, n)
    # a DP solve's flat finish runs while the DP's pair tables stay cached
    nbytes = _flat_bytes(m, finish) + (_dp_bytes(m, n) if finish < n else 0)
    _check(units, node_budget, nbytes, m, n)
    labels, value = _solve(table.values, m, n, finish)
    return PartialAssignment(tuple(labels)), value
