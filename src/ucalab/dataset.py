"""Labeled training data: partial assignments with exact value-to-go targets.

A dataset holds (assignment, current value, value-to-go) records sampled
level by level: for each unassigned count u in 1..kappa, the same number
of uniformly random partial assignments, each labeled by exhaustive
search. Labeling one record with u free elements costs the work units of
the exact kernel that runs it (`exact.value_to_go_units`: m^u completions,
or about (m - 2)·3^u DP updates), which is why kappa stays small and every
level's cost is checked against a budget before the first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DATASET_FORMAT, MAX_ELEMENTS, FormatError, PartialAssignment, ProblemSpec, UNASSIGNED, ValueTable, assignments,
    value_of,
)
from .exact import DEFAULT_NODE_BUDGET, BudgetExceededError, exact_value_to_go, value_to_go_units

_UNASSIGNED_BYTE = 255


@dataclass(frozen=True)
class DatasetConfig:
    """kappa: deepest unassigned count to label; pairs_per_level: records per
    level."""

    kappa: int
    pairs_per_level: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError("kappa must be at least 1")
        if self.pairs_per_level < 1:
            raise ValueError("pairs_per_level must be at least 1")


@dataclass(frozen=True)
class LabeledPair:
    assignment: PartialAssignment
    current_value: float
    target: float


def sample_partial_labels(n: int, m: int, levels, per_level: int, rng: np.random.Generator) -> np.ndarray:
    """Labels of per_level uniform partial assignments per unassigned count
    u in `levels`, in (level, draw index) order, drawn by two RNG calls: the
    entries below n-u of a row-wise permutation pick the labeled elements.
    Labels are int16, or int64 when m - 1 does not fit int16."""
    if not all(0 <= u <= n for u in levels):
        raise ValueError(f"unassigned counts {list(levels)} must lie in 0..{n}")
    free = np.repeat(np.array(levels, dtype=np.int64), per_level)
    ranks = rng.permuted(np.broadcast_to(np.arange(n, dtype=np.int8), (len(free), n)), axis=1)
    dtype = np.int16 if m <= 1 << 15 else np.int64
    return np.where(ranks < (n - free)[:, None], rng.integers(0, m, ranks.shape, dtype=dtype), UNASSIGNED)


def check_levels(n: int, m: int, levels, per_level: int, node_budget: int) -> None:
    """Refuse a level outside 1..n, and a level whose per_level exact labels
    would exceed the budget (BudgetExceededError), each priced on the kernel
    that will label it."""
    for unassigned in levels:
        if not 1 <= unassigned <= n:
            raise ValueError(f"level {unassigned} out of range for n={n}")
        level_cost = per_level * value_to_go_units(m, unassigned)
        if level_cost > node_budget:
            raise BudgetExceededError(level_cost, node_budget, f"level with {unassigned} unassigned")


def label_levels(
    table: ValueTable,
    levels,
    per_level: int,
    rng: np.random.Generator,
    node_budget: int,
) -> list[LabeledPair]:
    """per_level uniform partial assignments with exact labels for each
    unassigned count in `levels`, ordered by (level, draw index).

    Every level is checked by `check_levels` before the first draw.
    """
    levels = list(levels)
    check_levels(table.n, table.m, levels, per_level, node_budget)
    return [
        LabeledPair(a, value_of(a, table), exact_value_to_go(a, table, node_budget=node_budget))
        for a in assignments(sample_partial_labels(table.n, table.m, levels, per_level, rng))
    ]


def build_dataset(
    spec: ProblemSpec,
    table: ValueTable,
    cfg: DatasetConfig,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[LabeledPair]:
    """pairs_per_level labeled records for each unassigned count 1..kappa,
    deterministic per cfg.seed; records are ordered by (level, draw index)."""
    if spec.n != table.n or spec.m != table.m:
        raise ValueError("problem spec and value table dimensions disagree")
    rng = np.random.default_rng(cfg.seed)
    return label_levels(table, range(1, cfg.kappa + 1), cfg.pairs_per_level, rng, node_budget)


def split_sizes(count: int, split_fraction: float) -> tuple[int, int]:
    """The train and test sizes of a split of `count` records:
    ceil((1-f)*count) train and the rest test. f must lie in (0, 1)."""
    if not 0.0 < split_fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {split_fraction}")
    n_train = math.ceil((1.0 - split_fraction) * count)
    return n_train, count - n_train


def split_dataset(
    pairs: list[LabeledPair],
    split_fraction: float,
    rng: np.random.Generator,
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Uniform shuffle, then the first `split_sizes` records for training
    and the rest held out."""
    n_train, _ = split_sizes(len(pairs), split_fraction)
    order = rng.permutation(len(pairs))
    train = [pairs[i] for i in order[:n_train]]
    test = [pairs[i] for i in order[n_train:]]
    return train, test


def _record_dtype(n: int) -> np.dtype:
    return np.dtype(
        [("mask", "<u4"), ("labels", "u1", (n,)), ("current_value", "<f8"), ("target", "<f8")]
    )


def _nonfinite(records: np.ndarray) -> np.ndarray:
    """Indices of the records whose current value or target is not finite."""
    return np.flatnonzero(~(np.isfinite(records["current_value"]) & np.isfinite(records["target"])))


def check_storable(m: int) -> None:
    """Refuse an m above 255: a UCAD label byte of 255 reads back as unassigned."""
    if m > _UNASSIGNED_BYTE:
        raise ValueError(f"m={m} exceeds {_UNASSIGNED_BYTE}, the most alternatives a label byte can hold")


def save_dataset(path: str | Path, pairs: list[LabeledPair], n: int, m: int, kappa: int) -> None:
    """Write records in the UCAD format: header n, m, kappa, count, then
    per record: u32 assigned mask, n label bytes (255 = unassigned), f64
    current value, f64 target. Refuses an m that `check_storable` refuses, a
    record without n labels or with a label at or above m, and a non-finite
    current value or target."""
    check_storable(m)
    try:
        labels = np.array([pair.assignment.labels for pair in pairs], dtype=np.int64).reshape(len(pairs), n)
    except ValueError as exc:
        raise ValueError("record dimension does not match dataset header") from exc
    if (labels >= m).any():
        raise ValueError(f"a record has a label at or above m={m}")
    records = np.empty(len(pairs), dtype=_record_dtype(n))
    records["mask"] = [pair.assignment.assigned_mask for pair in pairs]
    records["labels"] = np.where(labels == UNASSIGNED, _UNASSIGNED_BYTE, labels)
    records["current_value"] = [pair.current_value for pair in pairs]
    records["target"] = [pair.target for pair in pairs]
    bad = _nonfinite(records)
    if len(bad):
        raise ValueError(f"record {bad[0]}: non-finite current value or target")
    DATASET_FORMAT.write(path, (n, m, kappa, len(pairs)), records)


def load_dataset(path: str | Path) -> tuple[list[LabeledPair], int, int, int]:
    """Read a UCAD file; returns (pairs, n, m, kappa).

    The header's n and m, and every record's labels, mask, current value
    and target, are checked on the whole record array before any record is
    built."""
    (n, m, kappa, count), payload = DATASET_FORMAT.read(path)
    if not 1 <= n <= MAX_ELEMENTS or not 1 <= m <= _UNASSIGNED_BYTE:
        raise FormatError(f"{path}: invalid dimensions n={n}, m={m}")
    dtype = _record_dtype(n)
    expected = count * dtype.itemsize
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} record bytes, found {len(payload)}")
    records = np.frombuffer(payload, dtype=dtype)
    assigned = records["labels"] != _UNASSIGNED_BYTE
    bad = np.argwhere(assigned & (records["labels"] >= m))
    if len(bad):
        r, j = bad[0]
        raise FormatError(f"{path}: record {r}: label {records['labels'][r, j]} at element {j} exceeds m={m}")
    masks = assigned.astype(np.uint32) @ (np.uint32(1) << np.arange(n, dtype=np.uint32))
    bad = np.flatnonzero(masks != records["mask"])
    if len(bad):
        raise FormatError(f"{path}: record {bad[0]}: mask inconsistent with labels")
    bad = _nonfinite(records)
    if len(bad):
        raise FormatError(f"{path}: record {bad[0]}: non-finite current value or target")
    labels = np.where(assigned, records["labels"], np.int16(UNASSIGNED))
    currents, targets = records["current_value"].tolist(), records["target"].tolist()
    pairs = [LabeledPair(a, current, target) for a, current, target in zip(assignments(labels), currents, targets)]
    return pairs, n, m, kappa
