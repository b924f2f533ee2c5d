"""Domain types for utilitarian combinatorial assignment.

An instance distributes n indivisible elements among m alternatives; the
tuple of per-alternative bundles is an assignment. Bundles are n-bit masks
over element indices, and the value function is a dense 2^n x m float64
table so every bundle lookup is O(1) (84 MB at n=20, m=10). A table is
refused before it is generated when its 2^n * m * 8 bytes exceed the
physical memory the OS reports (`check_memory`, which the exact kernel
also uses).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_ELEMENTS = 30
UNASSIGNED = -1


class FormatError(ValueError):
    """A UCAV, UCAD or UCAM file that is truncated or corrupt."""


FORMAT_VERSION = 1


class BinaryFormat:
    """The framing every ucalab file shares: a 4-byte magic, a u8 version
    (FORMAT_VERSION), then the format's own little-endian header fields
    (`fields`, struct codes), then its payload."""

    def __init__(self, magic: bytes, fields: str) -> None:
        self.magic = magic
        self.header = struct.Struct("<4sB" + fields)

    def write(self, path: str | Path, fields, *payload) -> None:
        """Write the header packed from `fields`, then each payload buffer."""
        with open(path, "wb") as fh:
            fh.write(self.header.pack(self.magic, FORMAT_VERSION, *fields))
            for chunk in payload:
                fh.write(chunk)

    def read(self, path: str | Path) -> tuple[tuple, np.ndarray]:
        """The header fields and the payload as one uint8 array, after the
        short-file, magic and version checks. The payload is read straight
        into that array, so the file is held once."""
        with open(path, "rb") as fh:
            head = fh.read(self.header.size)
            if len(head) < self.header.size:
                raise FormatError(f"{path}: truncated {self.magic.decode()} header")
            magic, version, *fields = self.header.unpack(head)
            if magic != self.magic:
                raise FormatError(f"{path}: bad magic {magic!r}, expected {self.magic!r}")
            if version != FORMAT_VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            payload = np.empty(os.fstat(fh.fileno()).st_size - self.header.size, dtype=np.uint8)
            got = fh.readinto(payload)
        if got != len(payload):
            raise FormatError(f"{path}: read {got} of {len(payload)} payload bytes")
        return tuple(fields), payload


# n, m, seed
TABLE_FORMAT = BinaryFormat(b"UCAV", "IIQ")
# n, m, kappa, record count
DATASET_FORMAT = BinaryFormat(b"UCAD", "IIIQ")
# n, m, value mean, value std, target mean, target std
MODEL_FORMAT = BinaryFormat(b"UCAM", "IIdddd")


# The physical memory the OS reports, read once per process: the exact kernel checks against it on every call.
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(needed: int, what: str) -> None:
    """Refuse `what`, before it allocates anything, when it needs more than
    PHYSICAL_MEMORY bytes."""
    if needed > PHYSICAL_MEMORY:
        raise ValueError(f"{what} needs {needed} bytes, more than the {PHYSICAL_MEMORY} bytes of physical memory")


@dataclass(frozen=True)
class ProblemSpec:
    """Instance dimensions and the master seed used for value generation."""

    n: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_ELEMENTS:
            raise ValueError(f"n must be in 1..{MAX_ELEMENTS}, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")

    def check_table_memory(self) -> None:
        """Refuse, before anything is allocated, a dense value table larger
        than physical memory."""
        check_memory((1 << self.n) * self.m * 8, f"a value table with n={self.n}, m={self.m}")


class ValueTable:
    """Dense value function: values[mask, t] is the worth of bundle `mask` to alternative t.

    n, m and seed are checked as a `ProblemSpec`; `seed` records how the
    table was generated and travels with the on-disk format. The table takes
    ownership of the array and freezes it; every entry must be finite.
    """

    def __init__(self, n: int, m: int, values, seed: int = 0) -> None:
        ProblemSpec(n, m, seed)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (1 << n, m):
            raise ValueError(f"expected values of shape {(1 << n, m)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("value table contains non-finite entries")
        self.n = n
        self.m = m
        self.seed = seed
        # C order, so that `values.reshape(-1)` is always a view
        self.values = np.ascontiguousarray(arr)
        self.values.setflags(write=False)

    def save(self, path: str | Path) -> None:
        """Write the table in the UCAV format: header n, m, seed, then
        2^n x m float64 values in mask-major order."""
        TABLE_FORMAT.write(path, (self.n, self.m, self.seed), np.ascontiguousarray(self.values, dtype="<f8"))

    @classmethod
    def load(cls, path: str | Path) -> "ValueTable":
        (n, m, seed), payload = TABLE_FORMAT.read(path)
        if not 1 <= n <= MAX_ELEMENTS or m < 1:
            raise FormatError(f"{path}: invalid dimensions n={n}, m={m}")
        expected = (1 << n) * m * 8
        if len(payload) != expected:
            raise FormatError(f"{path}: expected {expected} value bytes, found {len(payload)}")
        try:
            return cls(n, m, payload.view("<f8").reshape(1 << n, m), seed=seed)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def checked_integers(values, what: str) -> list[int]:
    """`values` as ints; every non-integral value (1.5, NaN, inf) is refused by name."""
    values = list(values)
    fractional = [v for v in values if not (isinstance(v, (int, np.integer)) or float(v).is_integer())]
    if fractional:
        raise ValueError(f"{what} must be integers, got {', '.join(map(str, fractional))}")
    return [int(v) for v in values]


@dataclass(frozen=True)
class PartialAssignment:
    """Per-element alternative labels; UNASSIGNED marks free elements.

    `assigned_mask`, the bitmask of labeled elements, is derived from the
    labels on construction. The per-alternative bundles derived from the
    labels are pairwise disjoint by construction.
    """

    labels: tuple[int, ...]
    assigned_mask: int = field(init=False)

    def __post_init__(self) -> None:
        mask = 0
        for j, lab in enumerate(self.labels):
            if lab == UNASSIGNED:
                continue
            if lab < 0:
                raise ValueError(f"label {lab} at element {j} is invalid")
            mask |= 1 << j
        object.__setattr__(self, "assigned_mask", mask)

    @staticmethod
    def empty(n: int) -> "PartialAssignment":
        return PartialAssignment((UNASSIGNED,) * n)

    @staticmethod
    def from_labels(labels) -> "PartialAssignment":
        return PartialAssignment(tuple(checked_integers(labels, "labels")))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_complete(self) -> bool:
        return self.assigned_mask == (1 << len(self.labels)) - 1

    def bundle_indices(self, m: int) -> np.ndarray:
        """Each bundle's flat table index mask·m + t, where `values.reshape(-1)`
        holds entry (mask, t), as an int64 array of length m."""
        index = list(range(m))
        for j, lab in enumerate(self.labels):
            if lab == UNASSIGNED:
                continue
            if lab >= m:
                raise ValueError(f"label {lab} at element {j} exceeds m={m}")
            index[lab] += m << j
        return np.array(index, dtype=np.int64)


def assignments(labels: np.ndarray) -> list[PartialAssignment]:
    """One PartialAssignment per row of an integer (R, n) label array, each from one zipped tuple of ints."""
    return [PartialAssignment(row) for row in zip(*labels.T.tolist())]


def value_of(assignment: PartialAssignment, table: ValueTable) -> float:
    """Total value of a partial assignment: sum over alternatives of the
    bundle value, empty bundles included (they contribute values[0, t])."""
    if assignment.n != table.n:
        raise ValueError(f"assignment has {assignment.n} elements, table expects {table.n}")
    return float(table.values.reshape(-1).take(assignment.bundle_indices(table.m)).sum())


def expand_children(assignment: PartialAssignment, element: int, m: int) -> list[PartialAssignment]:
    """The m single-element extensions placing `element` into each bundle, in
    alternative order."""
    if not 0 <= element < assignment.n:
        raise ValueError(f"element {element} out of range")
    if assignment.labels[element] != UNASSIGNED:
        raise ValueError(f"element {element} is already assigned")
    labels = assignment.labels
    return [PartialAssignment(labels[:element] + (t,) + labels[element + 1 :]) for t in range(m)]
