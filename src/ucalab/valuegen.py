"""Seeded generators for the NPD and TRAP value-function distributions.

NPD draws every (bundle, alternative) value i.i.d. from N(mu, sigma^2).
TRAP draws from N(trap_mean(|C|), sigma^2), where the mean is negative-
quadratic in bundle size below a threshold and gains a super-quadratic
bonus at and above it, so heuristics that grow bundles one element at a
time walk into arbitrarily bad local optima.

Entries are drawn from a single seeded stream in mask-major, alternative-
minor order, so a (spec, params) pair always reproduces the same table. The
draw is scaled and shifted in place, so a generator holds the table once.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core import ProblemSpec, ValueTable


class _CheckedParams:
    """Refuses a NaN or infinite field, by name, and a negative sigma."""

    def __post_init__(self) -> None:
        for f, value in zip(fields(self), astuple(self)):
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class NpdParams(_CheckedParams):
    mu: float = 1.0
    sigma: float = 0.1


@dataclass(frozen=True)
class TrapParams(_CheckedParams):
    sigma: float = 0.1
    delta: float = 0.1
    tau_threshold: float = 10.0
    epsilon: float = 0.1


def trap_mean(bundle_size: int, p: TrapParams) -> float:
    """Mean bundle value under TRAP as a function of bundle size.

    delta * (s - s^2) below the threshold, plus s^(2+epsilon) at and above
    it. The power is evaluated as exp((2+eps)*ln(s)) with 0^(2+eps) = 0.
    """
    s = int(bundle_size)
    if s < 0:
        raise ValueError("bundle size must be nonnegative")
    base = float(s - s * s)
    if s < p.tau_threshold:
        return p.delta * base
    bump = 0.0 if s == 0 else math.exp((2.0 + p.epsilon) * math.log(s))
    return p.delta * (base + bump)


def generate_npd(spec: ProblemSpec, p: NpdParams) -> ValueTable:
    """Dense table with i.i.d. N(mu, sigma^2) entries, seeded by `spec.seed`."""
    values = np.random.default_rng(spec.seed).standard_normal((1 << spec.n, spec.m))
    values *= p.sigma
    values += p.mu
    return ValueTable(spec.n, spec.m, values, seed=spec.seed)


def generate_trap(spec: ProblemSpec, p: TrapParams) -> ValueTable:
    """Dense table with entry (mask, t) ~ N(trap_mean(popcount(mask)), sigma^2)."""
    values = np.random.default_rng(spec.seed).standard_normal((1 << spec.n, spec.m))
    values *= p.sigma
    means = np.array([trap_mean(s, p) for s in range(spec.n + 1)])
    values += means[np.bitwise_count(np.arange(1 << spec.n, dtype=np.uint64))][:, None]
    return ValueTable(spec.n, spec.m, values, seed=spec.seed)
