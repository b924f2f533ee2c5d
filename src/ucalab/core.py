"""Domain types for utilitarian combinatorial assignment.

An instance distributes n indivisible elements among m alternatives; the
tuple of per-alternative bundles is an assignment. Bundles are n-bit masks
over element indices, and the value function is a dense 2^n x m float64
table so every bundle lookup is O(1). The n <= 30 guard keeps the dense
table representable (84 MB at n=20, m=10).
"""

from __future__ import annotations

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

    def read(self, path: str | Path) -> tuple[tuple, memoryview]:
        """The header fields and a view of the payload (no copy), after the
        short-file, magic and version checks."""
        data = Path(path).read_bytes()
        if len(data) < self.header.size:
            raise FormatError(f"{path}: truncated {self.magic.decode()} header")
        magic, version, *fields = self.header.unpack_from(data)
        if magic != self.magic:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {self.magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        return tuple(fields), memoryview(data)[self.header.size :]


# n, m, seed
TABLE_FORMAT = BinaryFormat(b"UCAV", "IIQ")
# n, m, kappa, record count
DATASET_FORMAT = BinaryFormat(b"UCAD", "IIIQ")
# n, m, value mean, value std, target mean, target std
MODEL_FORMAT = BinaryFormat(b"UCAM", "IIdddd")


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


class ValueTable:
    """Dense value function: values[mask, t] is the worth of bundle `mask` to alternative t.

    The table takes ownership of the array and freezes it; every entry must
    be finite. `seed` records how the table was generated and travels with
    the on-disk format.
    """

    def __init__(self, n: int, m: int, values, seed: int = 0) -> None:
        if not 1 <= n <= MAX_ELEMENTS:
            raise ValueError(f"n must be in 1..{MAX_ELEMENTS}, got {n}")
        if m < 1:
            raise ValueError(f"m must be at least 1, got {m}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (1 << n, m):
            raise ValueError(f"expected values of shape {(1 << n, m)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("value table contains non-finite entries")
        self.n = n
        self.m = m
        self.seed = seed
        self.values = arr
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
        arr = np.frombuffer(payload, dtype="<f8")
        try:
            return cls(n, m, arr.reshape(1 << n, m).copy(), seed=seed)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


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
        return PartialAssignment(tuple(int(x) for x in labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_complete(self) -> bool:
        return self.assigned_mask == (1 << len(self.labels)) - 1

    def is_assigned(self, element: int) -> bool:
        return self.labels[element] != UNASSIGNED

    def with_label(self, element: int, alternative: int) -> "PartialAssignment":
        """Copy with one additional element labeled; the element must be free."""
        if self.labels[element] != UNASSIGNED:
            raise ValueError(f"element {element} is already assigned")
        if alternative < 0:
            raise ValueError(f"alternative {alternative} is invalid")
        labels = list(self.labels)
        labels[element] = alternative
        return PartialAssignment(tuple(labels))

    def bundle_masks(self, m: int) -> np.ndarray:
        """Per-alternative bundle bitmasks as an int64 array of length m."""
        masks = np.zeros(m, dtype=np.int64)
        for j, lab in enumerate(self.labels):
            if lab == UNASSIGNED:
                continue
            if lab >= m:
                raise ValueError(f"label {lab} at element {j} exceeds m={m}")
            masks[lab] |= 1 << j
        return masks


def value_of(assignment: PartialAssignment, table: ValueTable) -> float:
    """Total value of a partial assignment: sum over alternatives of the
    bundle value, empty bundles included (they contribute values[0, t])."""
    if assignment.n != table.n:
        raise ValueError(f"assignment has {assignment.n} elements, table expects {table.n}")
    masks = assignment.bundle_masks(table.m)
    return float(table.values[masks, np.arange(table.m)].sum())


def expand_children(assignment: PartialAssignment, element: int, m: int) -> list[PartialAssignment]:
    """The m single-element extensions placing `element` into each bundle, in
    alternative order."""
    if not 0 <= element < assignment.n:
        raise ValueError(f"element {element} out of range")
    if assignment.is_assigned(element):
        raise ValueError(f"element {element} is already assigned")
    return [assignment.with_label(element, t) for t in range(m)]
