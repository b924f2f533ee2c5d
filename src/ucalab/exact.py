"""Exhaustive computation of exact optima and value-to-go.

The value-to-go of a partial assignment is the best total value over all
m^u completions of its u free elements. Cost is therefore exponential in
u; callers accept it explicitly through a node budget, counted as the
nodes of the equivalent depth-first search tree (`dfs_node_count`), and
the budget check happens before any work, as does the check that the
search's arrays fit physical memory (`core.check_memory`).

Completions are enumerated flat, in lexicographic label order, as blocks
of flat table indices: entry (mask, t) is element mask·m + t of
`values.reshape(-1)`, and putting element e in bundle t adds m·2^e to it.
Each block is one broadcast add of leading-element prefixes to an inner
block of the trailing elements, one `take`, and a row sum bitwise equal to
the `.sum(axis=1)` of the flat-enumeration oracles.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .core import UNASSIGNED, PartialAssignment, ValueTable, check_memory

DEFAULT_NODE_BUDGET = 10**8
BLOCK_COMPLETIONS = 4096


class BudgetExceededError(RuntimeError):
    """Raised when a search would visit more nodes than the caller allowed."""

    def __init__(self, needed: int, budget: int, context: str = "") -> None:
        where = f" ({context})" if context else ""
        super().__init__(f"search needs {needed} nodes, budget is {budget}{where}")


def dfs_node_count(m: int, depth: int) -> int:
    """Nodes in a full m-ary tree of the given depth (root included)."""
    if m == 1:
        return depth + 1
    return (m ** (depth + 1) - 1) // (m - 1)


@cache
def _bundle_steps(m: int, bit: int) -> np.ndarray:
    """The (m, m, 1) flat-index steps of putting element `bit` in each bundle,
    read-only, since every caller shares them."""
    steps = (np.eye(m, dtype=np.int64) * (m * bit))[:, :, None]
    steps.setflags(write=False)
    return steps


def _flat_indices(start: np.ndarray, bits: list[int]) -> np.ndarray:
    """Flat indices of every completion of `start`, one column each, in
    lexicographic label order (bits[0] slowest). Each bit is added as the new
    slowest digit, so numpy's inner loop runs along the long axis."""
    cols = start[:, None]
    for bit in reversed(bits):
        cols = (_bundle_steps(len(start), bit) + cols[:, None, :]).reshape(len(start), -1)
    return cols


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Column totals of an (m, R) block, bitwise `.sum(axis=1)` of its C-ordered
    transpose: numpy adds fewer than 8 entries in order from 0.0, as the sum
    over axis 0 does, and more pairwise, which needs the C-ordered copy."""
    if len(block) < 8:
        return block.sum(axis=0)
    return np.ascontiguousarray(block.T).sum(axis=1)


def _best_completion(table: ValueTable, assignment: PartialAssignment, node_budget: int) -> tuple[float, int]:
    """Best completion value of `assignment` and the lexicographic index of its
    first occurrence, refused before any work when the search tree has more
    than node_budget nodes, or its arrays more bytes than physical memory.

    The trailing free elements (half, or as many as fit BLOCK_COMPLETIONS)
    form the inner block, and the leading ones a prefix table of m^(split+1)
    indices; each free element also holds an m x m step matrix. A block
    holds at most m * BLOCK_COMPLETIONS entries, so memory grows with m^2
    and the prefix table but not with the depth.
    """
    m = table.m
    bits = [1 << e for e, lab in enumerate(assignment.labels) if lab == UNASSIGNED]
    u = len(bits)
    needed = dfs_node_count(m, u)
    if needed > node_budget:
        raise BudgetExceededError(needed, node_budget, f"depth {u}, branching {m}")
    split = u // 2
    while m ** (u - split) > BLOCK_COMPLETIONS:
        split += 1
    # step matrices, prefix table and inner block (each with the table it is
    # built from), then three blocks at once (the next block, its broadcast
    # buffer and the last block, or a block, its gathered values and their
    # transposed copy) and two blocks' sums
    width = min(BLOCK_COMPLETIONS, m**u)
    entries = u * m * m + 2 * m ** (split + 1) + 2 * m ** (u - split + 1) + 3 * m * width + 2 * width
    check_memory(8 * entries, f"exact search at depth {u}, branching {m}")
    outer = _flat_indices(assignment.bundle_indices(m), bits[:split])
    inner = _flat_indices(np.zeros(m, dtype=np.int64), bits[split:])
    per = BLOCK_COMPLETIONS // inner.shape[1]
    best, where = -np.inf, 0
    for s in range(0, outer.shape[1], per):
        block = (outer[:, s : s + per, None] + inner[:, None, :]).reshape(m, -1)
        leaf = _row_sums(table.values.reshape(-1).take(block))
        j = int(leaf.argmax())
        if s == 0 or leaf[j] > best:
            best, where = leaf[j], s * inner.shape[1] + j
    return float(best), where


def exact_value_to_go(
    assignment: PartialAssignment,
    table: ValueTable,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Best achievable total value over all completions of `assignment`."""
    if assignment.n != table.n:
        raise ValueError(f"assignment has {assignment.n} elements, table expects {table.n}")
    return _best_completion(table, assignment, node_budget)[0]


def solve_exact(table: ValueTable, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[PartialAssignment, float]:
    """Optimal complete assignment and its value, by exhaustive search.

    Ties resolve to the first optimum in lexicographic label order.
    """
    value, where = _best_completion(table, PartialAssignment.empty(table.n), node_budget)
    return PartialAssignment.from_labels(np.unravel_index(where, (table.m,) * table.n)), value
