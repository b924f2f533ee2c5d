"""Exhaustive computation of exact optima and value-to-go.

The value-to-go of a partial assignment is the best total value over all
m^u completions of its u free elements. Cost is therefore exponential in
u; callers accept it explicitly through a node budget, counted as the
nodes of the equivalent depth-first search tree (`dfs_node_count`), and
the budget check happens before any work.

Completions are enumerated flat, in lexicographic label order, as blocks
of bundle masks: the trailing free elements form one precomputed inner
block and each prefix of the leading ones is ORed into it. Each value is
produced by gathering the m bundle entries of a complete assignment and
reducing along the row, which keeps results bit-identical to the flat
enumeration oracles.
"""

from __future__ import annotations

import numpy as np

from .core import PartialAssignment, ValueTable

DEFAULT_NODE_BUDGET = 10**8
BLOCK_COMPLETIONS = 4096


class BudgetExceededError(RuntimeError):
    """Raised when a search would visit more nodes than the caller allowed."""

    def __init__(self, needed: int, budget: int, context: str = "") -> None:
        where = f" ({context})" if context else ""
        super().__init__(f"search needs {needed} nodes, budget is {budget}{where}")
        self.needed = needed
        self.budget = budget
        self.context = context


def dfs_node_count(m: int, depth: int) -> int:
    """Nodes in a full m-ary tree of the given depth (root included)."""
    if m == 1:
        return depth + 1
    return (m ** (depth + 1) - 1) // (m - 1)


def _completion_masks(base: np.ndarray, bits: list[int]) -> np.ndarray:
    """Bundle masks of every completion of `base`, one row each, in
    lexicographic label order (the element of bits[0] varies slowest)."""
    m = len(base)
    masks = base[None, :]
    for bit in bits:
        masks = (masks[:, None, :] | np.eye(m, dtype=np.int64) * bit).reshape(-1, m)
    return masks


def _best_completion(values: np.ndarray, base: np.ndarray, bits: list[int]) -> tuple[float, int]:
    """Best completion value and the lexicographic index of its first occurrence.

    The trailing free elements form an inner block of at most
    BLOCK_COMPLETIONS rows that each prefix of the leading ones is ORed
    into, so memory stays bounded by the block whatever the depth.
    """
    m = len(base)
    split = len(bits)
    while split and m ** (len(bits) - split + 1) <= BLOCK_COMPLETIONS:
        split -= 1
    inner = _completion_masks(np.zeros(m, dtype=np.int64), bits[split:])
    cols = np.arange(m)
    best, where = -np.inf, 0
    for i, prefix in enumerate(_completion_masks(base, bits[:split])):
        leaf = values[inner | prefix, cols].sum(axis=1)
        j = int(leaf.argmax())
        if i == 0 or leaf[j] > best:
            best, where = leaf[j], i * len(inner) + j
    return float(best), where


def exact_value_to_go(
    assignment: PartialAssignment,
    table: ValueTable,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Best achievable total value over all completions of `assignment`."""
    if assignment.n != table.n:
        raise ValueError(f"assignment has {assignment.n} elements, table expects {table.n}")
    bits = [1 << e for e in range(table.n) if not assignment.is_assigned(e)]
    needed = dfs_node_count(table.m, len(bits))
    if needed > node_budget:
        raise BudgetExceededError(needed, node_budget, f"depth {len(bits)}, branching {table.m}")
    return _best_completion(table.values, assignment.bundle_masks(table.m), bits)[0]


def solve_exact(table: ValueTable, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[PartialAssignment, float]:
    """Optimal complete assignment and its value, by exhaustive search.

    Ties resolve to the first optimum in lexicographic label order.
    """
    n, m = table.n, table.m
    needed = dfs_node_count(m, n)
    if needed > node_budget:
        raise BudgetExceededError(needed, node_budget, f"depth {n}, branching {m}")
    value, where = _best_completion(table.values, np.zeros(m, dtype=np.int64), [1 << e for e in range(n)])
    return PartialAssignment.from_labels(np.unravel_index(where, (m,) * n)), value
