"""Labeled training data: partial assignments with exact value-to-go targets.

A dataset holds (assignment, current value, value-to-go) records sampled
level by level: for each unassigned count u in 1..kappa, the same number
of uniformly random partial assignments, each labeled by exhaustive
search. Labeling one record costs m^u node visits, which is why kappa
stays small and every level's cost is checked against a node budget
before the first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DATASET_FORMAT, MAX_ELEMENTS, FormatError, PartialAssignment, ProblemSpec, UNASSIGNED, ValueTable, value_of,
)
from .exact import DEFAULT_NODE_BUDGET, BudgetExceededError, dfs_node_count, exact_value_to_go

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


def sample_partial_assignment(spec: ProblemSpec, i: int, rng: np.random.Generator) -> PartialAssignment:
    """Uniform partial assignment with exactly i elements labeled: a uniform
    i-subset of the elements, each labeled independently and uniformly."""
    if not 0 <= i <= spec.n:
        raise ValueError(f"assigned count {i} out of range for n={spec.n}")
    subset = rng.choice(spec.n, size=i, replace=False)
    alternatives = rng.integers(0, spec.m, size=i)
    labels = [UNASSIGNED] * spec.n
    for e, t in zip(subset, alternatives):
        labels[int(e)] = int(t)
    return PartialAssignment.from_labels(labels)


def label_levels(
    table: ValueTable,
    levels,
    per_level: int,
    rng: np.random.Generator,
    node_budget: int,
) -> list[LabeledPair]:
    """per_level uniform partial assignments with exact labels for each
    unassigned count in `levels`, ordered by (level, draw index).

    Every level's range and labeling cost is checked before the first draw.
    """
    for unassigned in levels:
        if not 1 <= unassigned <= table.n:
            raise ValueError(f"level {unassigned} out of range for n={table.n}")
        level_cost = per_level * dfs_node_count(table.m, unassigned)
        if level_cost > node_budget:
            raise BudgetExceededError(level_cost, node_budget, f"level with {unassigned} unassigned")
    spec = ProblemSpec(table.n, table.m, table.seed)
    pairs: list[LabeledPair] = []
    for unassigned in levels:
        for _ in range(per_level):
            assignment = sample_partial_assignment(spec, table.n - unassigned, rng)
            current = value_of(assignment, table)
            target = exact_value_to_go(assignment, table, node_budget=node_budget)
            pairs.append(LabeledPair(assignment, current, target))
    return pairs


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
    if cfg.kappa > spec.n:
        raise ValueError(f"kappa {cfg.kappa} exceeds n={spec.n}")
    rng = np.random.default_rng(cfg.seed)
    return label_levels(table, range(1, cfg.kappa + 1), cfg.pairs_per_level, rng, node_budget)


def split_dataset(
    pairs: list[LabeledPair],
    split_fraction: float,
    rng: np.random.Generator,
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Uniform shuffle, then ceil((1-f)*N) records for training and the rest
    held out. f must lie in (0, 1)."""
    if not 0.0 < split_fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {split_fraction}")
    order = rng.permutation(len(pairs))
    n_train = math.ceil((1.0 - split_fraction) * len(pairs))
    train = [pairs[i] for i in order[:n_train]]
    test = [pairs[i] for i in order[n_train:]]
    return train, test


def _record_dtype(n: int) -> np.dtype:
    return np.dtype(
        [("mask", "<u4"), ("labels", "u1", (n,)), ("current_value", "<f8"), ("target", "<f8")]
    )


def save_dataset(path: str | Path, pairs: list[LabeledPair], n: int, m: int, kappa: int) -> None:
    """Write records in the UCAD format: header n, m, kappa, count, then
    per record: u32 assigned mask, n label bytes (255 = unassigned), f64
    current value, f64 target. m above 255 is refused, since a label of 255
    would read back as unassigned; so is a record without n labels or with
    a label at or above m."""
    if m > _UNASSIGNED_BYTE:
        raise ValueError(f"m={m} exceeds {_UNASSIGNED_BYTE}, the most alternatives a label byte can hold")
    try:
        labels = np.array([pair.assignment.labels for pair in pairs], dtype=np.int16).reshape(len(pairs), n)
    except ValueError as exc:
        raise ValueError("record dimension does not match dataset header") from exc
    if (labels >= m).any():
        raise ValueError(f"a record has a label at or above m={m}")
    records = np.empty(len(pairs), dtype=_record_dtype(n))
    records["mask"] = [pair.assignment.assigned_mask for pair in pairs]
    records["labels"] = np.where(labels == UNASSIGNED, _UNASSIGNED_BYTE, labels)
    records["current_value"] = [pair.current_value for pair in pairs]
    records["target"] = [pair.target for pair in pairs]
    DATASET_FORMAT.write(path, (n, m, kappa, len(pairs)), records)


def load_dataset(path: str | Path) -> tuple[list[LabeledPair], int, int, int]:
    """Read a UCAD file; returns (pairs, n, m, kappa).

    The header's n and m, every record's labels and every record's mask
    are checked on the whole record array before any record is built."""
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
    labels = records["labels"].astype(np.int16)
    labels[~assigned] = UNASSIGNED
    currents = records["current_value"].tolist()
    targets = records["target"].tolist()
    # zip over the label columns yields each record's labels as one tuple,
    # without a transient list per record
    pairs = [
        LabeledPair(PartialAssignment(row), current, target)
        for row, current, target in zip(zip(*labels.T.tolist()), currents, targets)
    ]
    return pairs, n, m, kappa
