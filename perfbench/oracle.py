"""Flat-enumeration oracle for the benchmark's output checks.

It does not use `ucalab.exact`. Completions of a partial labeling are
enumerated as a mixed-radix label grid and scored by gathering the m bundle
entries of each completion and summing along the row. That is the arithmetic
the exact search uses at its leaves, so values compare bitwise. Large
enumerations run in blocks of at most m**BLOCK_ELEMENTS completions so that a
check does not raise the run's peak memory.
"""

from __future__ import annotations

import itertools

import numpy as np

BLOCK_ELEMENTS = 6


def _bundle_masks(labels, m: int) -> np.ndarray:
    masks = np.zeros(m, dtype=np.int64)
    for j, lab in enumerate(labels):
        if lab >= 0:
            masks[lab] |= 1 << j
    return masks


def assignment_value(values: np.ndarray, labels) -> float:
    """Summed bundle values of a labeling; free elements stay out of every bundle."""
    m = values.shape[1]
    return float(values[_bundle_masks(labels, m), np.arange(m)].sum())


def completion_blocks(values: np.ndarray, labels):
    """Yield the values of every completion of `labels`, block by block."""
    m = values.shape[1]
    cols = np.arange(m)
    free = [j for j, lab in enumerate(labels) if lab < 0]
    inner = free[max(0, len(free) - BLOCK_ELEMENTS):]
    outer = free[: len(free) - len(inner)]
    count = m ** len(inner)
    grid = np.indices((m,) * len(inner)).reshape(len(inner), count).T
    rows = np.arange(count)
    base = _bundle_masks(labels, m)
    for prefix in itertools.product(range(m), repeat=len(outer)):
        start = base.copy()
        for j, lab in zip(outer, prefix):
            start[lab] |= 1 << j
        masks = np.repeat(start[None, :], count, axis=0)
        for pos, j in enumerate(inner):
            masks[rows, grid[:, pos]] |= 1 << j
        yield values[masks, cols].sum(axis=1)


def best_completion_value(values: np.ndarray, labels) -> float:
    """Best total value over all completions of `labels`."""
    return float(max(block.max() for block in completion_blocks(values, labels)))


def positive_fraction(values: np.ndarray, n: int) -> float:
    """Exact share of complete assignments with positive value (small tables only)."""
    positives = 0
    total = 0
    for block in completion_blocks(values, [-1] * n):
        positives += int((block > 0).sum())
        total += block.size
    return positives / total
