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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_ELEMENTS, FormatError, PartialAssignment, ProblemSpec, UNASSIGNED, ValueTable, value_of
from .exact import DEFAULT_NODE_BUDGET, BudgetExceededError, dfs_node_count, exact_value_to_go

_DATASET_MAGIC = b"UCAD"
_DATASET_VERSION = 1
_DATASET_HEADER = struct.Struct("<4sBIIIQ")
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
    """Write records in the UCAD binary format (little-endian).

    Layout: magic "UCAD", u8 version, u32 n, u32 m, u32 kappa, u64 count,
    then per record: u32 assigned mask, n label bytes (255 = unassigned),
    f64 current value, f64 target. m above 255 is refused, since a label
    of 255 would read back as unassigned.
    """
    if m > _UNASSIGNED_BYTE:
        raise ValueError(f"m={m} exceeds {_UNASSIGNED_BYTE}, the most alternatives a label byte can hold")
    records = np.empty(len(pairs), dtype=_record_dtype(n))
    for r, pair in enumerate(pairs):
        if pair.assignment.n != n:
            raise ValueError("record dimension does not match dataset header")
        records[r]["mask"] = pair.assignment.assigned_mask
        records[r]["labels"] = [
            _UNASSIGNED_BYTE if lab == UNASSIGNED else lab for lab in pair.assignment.labels
        ]
        records[r]["current_value"] = pair.current_value
        records[r]["target"] = pair.target
    header = _DATASET_HEADER.pack(_DATASET_MAGIC, _DATASET_VERSION, n, m, kappa, len(pairs))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def load_dataset(path: str | Path) -> tuple[list[LabeledPair], int, int, int]:
    """Read a UCAD file; returns (pairs, n, m, kappa).

    The header's n and m and every record's labels are checked before any
    record is built."""
    data = Path(path).read_bytes()
    if len(data) < _DATASET_HEADER.size:
        raise FormatError(f"{path}: truncated dataset file")
    magic, version, n, m, kappa, count = _DATASET_HEADER.unpack_from(data)
    if magic != _DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_DATASET_MAGIC!r}")
    if version != _DATASET_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if not 1 <= n <= MAX_ELEMENTS or not 1 <= m <= _UNASSIGNED_BYTE:
        raise FormatError(f"{path}: invalid dimensions n={n}, m={m}")
    dtype = _record_dtype(n)
    expected = count * dtype.itemsize
    if len(data) - _DATASET_HEADER.size != expected:
        raise FormatError(f"{path}: expected {expected} record bytes, found {len(data) - _DATASET_HEADER.size}")
    records = np.frombuffer(data, dtype=dtype, offset=_DATASET_HEADER.size)
    bad = np.argwhere((records["labels"] != _UNASSIGNED_BYTE) & (records["labels"] >= m))
    if len(bad):
        r, j = bad[0]
        raise FormatError(f"{path}: record {r}: label {records['labels'][r, j]} at element {j} exceeds m={m}")
    pairs = []
    for rec in records:
        labels = [UNASSIGNED if b == _UNASSIGNED_BYTE else int(b) for b in rec["labels"]]
        assignment = PartialAssignment.from_labels(labels)
        if assignment.assigned_mask != int(rec["mask"]):
            raise FormatError(f"{path}: record mask inconsistent with labels")
        pairs.append(LabeledPair(assignment, float(rec["current_value"]), float(rec["target"])))
    return pairs, n, m, kappa
