"""Greedy rollout sampling with pluggable child-scoring heuristics.

A rollout draws a fresh uniform element order, then commits each element
to the bundle whose child state scores highest (ties to the lowest
alternative index). Scoring variants: the child's own value, an
independent uniform draw (making the rollout a uniform sample of the
search space), or a trained network's value-to-go prediction. The random
element order is what makes repeated rollouts explore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PartialAssignment, ValueTable, value_of
from .neural import MlpModel, forward

ESTIMATOR_KINDS = ("current", "random", "neural")


@dataclass(frozen=True)
class Estimator:
    """Tagged child-scoring rule: one of "current", "random", "neural"."""

    kind: str
    model: MlpModel | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "neural" and self.model is None:
            raise ValueError("neural estimator requires a model")

    @staticmethod
    def current_value() -> "Estimator":
        return Estimator("current")

    @staticmethod
    def random() -> "Estimator":
        return Estimator("random")

    @staticmethod
    def neural(model: MlpModel) -> "Estimator":
        return Estimator("neural", model)


@dataclass(frozen=True)
class RolloutResult:
    """Best assignment found plus the running best value at each requested
    evaluation count."""

    best_assignment: PartialAssignment
    best_value: float
    checkpoints: tuple[tuple[int, float], ...]


def greedy_rollout(table: ValueTable, estimator: Estimator, rng: np.random.Generator) -> PartialAssignment:
    """One complete assignment built greedily under the estimator."""
    n, m = table.n, table.m
    if estimator.kind == "neural" and (estimator.model.n != n or estimator.model.m != m):
        raise ValueError("neural estimator model dimensions do not match the table")
    values = table.values
    cols = np.arange(m)
    order = rng.permutation(n)
    labels = np.full(n, -1, dtype=np.int64)
    masks = np.zeros(m, dtype=np.int64)
    current = float(values[masks, cols].sum())
    encoding = None
    if estimator.kind == "neural":
        encoding = np.zeros(m * n + 1)
        vmean, vstd = estimator.model.value_norm
    for e in order:
        e = int(e)
        bit = 1 << e
        old = values[masks, cols]
        new = values[masks | bit, cols]
        child_values = current - old + new
        if estimator.kind == "current":
            scores = child_values
        elif estimator.kind == "random":
            scores = rng.random(m)
        else:
            batch = np.repeat(encoding[None, :], m, axis=0)
            batch[cols, cols * n + e] = 1.0
            batch[:, m * n] = (child_values - vmean) / vstd
            scores = forward(estimator.model, batch)
        pick = int(np.argmax(scores))
        labels[e] = pick
        masks[pick] |= bit
        current = float(child_values[pick])
        if encoding is not None:
            encoding[pick * n + e] = 1.0
    return PartialAssignment.from_labels(labels)


def checked_checkpoints(n_evals: int, checkpoints) -> list[int]:
    """The checkpoints as ints, refused unless sorted within 1..n_evals."""
    if n_evals < 1:
        raise ValueError("n_evals must be at least 1")
    checkpoints = [int(c) for c in checkpoints]
    if checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be sorted ascending")
    if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > n_evals):
        raise ValueError("checkpoints must lie in 1..n_evals")
    return checkpoints


def best_of_n(
    table: ValueTable,
    estimator: Estimator,
    n_evals: int,
    checkpoints,
    rng: np.random.Generator,
) -> RolloutResult:
    """Run n_evals independent rollouts (one evaluation = one complete
    rollout) and track the running maximum value."""
    checkpoints = checked_checkpoints(n_evals, checkpoints)
    best_value = -np.inf
    best_assignment = None
    recorded: list[tuple[int, float]] = []
    ci = 0
    for evaluation in range(1, n_evals + 1):
        assignment = greedy_rollout(table, estimator, rng)
        val = value_of(assignment, table)
        if val > best_value:
            best_value = val
            best_assignment = assignment
        while ci < len(checkpoints) and checkpoints[ci] == evaluation:
            recorded.append((evaluation, best_value))
            ci += 1
    return RolloutResult(best_assignment, best_value, tuple(recorded))
