"""Greedy rollout sampling with pluggable child-scoring heuristics.

A rollout draws a fresh uniform element order, then commits each element
to the bundle whose child state scores highest (ties to the lowest
alternative index). Scoring variants: the child's own value, an
independent uniform draw (making the rollout a uniform sample of the
search space), or a trained network's value-to-go prediction. The random
element order is what makes repeated rollouts explore. Rollouts run in
lockstep blocks: each element step of a block is one array program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UNASSIGNED, PartialAssignment, ValueTable, assignments, checked_integers, value_of
from .neural import MlpModel, _encode, check_fits, forward

ESTIMATOR_KINDS = ("current", "random", "neural")
# The most rollouts run in lockstep at once, so memory does not grow with n_evals.
ROLLOUT_BLOCK = 512


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


def _lockstep_labels(table: ValueTable, estimator: Estimator, count: int, rng: np.random.Generator) -> np.ndarray:
    """The labels, one row per rollout, of `count` greedy rollouts run in
    lockstep: each element step is one array program over every rollout.

    Draws come in rollout order (a rollout's element order, then for
    `random` its (n, m) scores), and each neural rollout scores its m
    children, encoded by the training encoder `_encode`, with one `forward`
    call per step, so each row is bitwise the rollout that the same draws
    would give when run alone."""
    n, m = table.n, table.m
    values = table.values
    if estimator.kind == "neural":
        check_fits(estimator.model, table)
    # the model is checked before the orders are drawn, so a refusal leaves rng untouched
    orders = np.empty((count, n), dtype=np.int64)
    draws = np.empty((count, n, m)) if estimator.kind == "random" else None
    for r in range(count):
        orders[r] = rng.permutation(n)
        if draws is not None:
            draws[r] = rng.random((n, m))
    rows, cols = np.arange(count), np.arange(m)
    labels = np.full((count, n), UNASSIGNED, dtype=np.int64)
    # index[r, t] is rollout r's bundle t entry in the flat table: mask·m + t
    flat, index = values.reshape(-1), np.tile(cols, (count, 1))
    current = np.full(count, values[0].sum())
    for step in range(n):
        e = orders[:, step]
        bit = 1 << e
        child_values = current[:, None] - flat.take(index) + flat.take(index + (bit * m)[:, None])
        if estimator.kind == "current":
            scores = child_values
        elif estimator.kind == "random":
            scores = draws[:, step]
        else:
            # children[r, t] is rollout r with this step's element put in bundle t
            children = np.repeat(labels[:, None, :], m, axis=1)
            children[rows[:, None], cols, e[:, None]] = cols
            inputs = _encode(children.reshape(-1, n), child_values.reshape(-1), m, estimator.model.value_norm)
            scores = np.array([forward(estimator.model, x) for x in inputs.reshape(count, m, -1)])
        pick = scores.argmax(axis=1)
        labels[rows, e] = pick
        index[rows, pick] += bit * m
        current = child_values[rows, pick]
    return labels


def greedy_rollout(table: ValueTable, estimator: Estimator, rng: np.random.Generator) -> PartialAssignment:
    """One complete assignment built greedily under the estimator."""
    return assignments(_lockstep_labels(table, estimator, 1, rng))[0]


def checked_checkpoints(n_evals: int, checkpoints) -> list[int]:
    """The checkpoints as ints, refused unless integral and strictly ascending
    in 1..n_evals."""
    if n_evals < 1:
        raise ValueError("n_evals must be at least 1")
    checkpoints = checked_integers(checkpoints, "checkpoints")
    if any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
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
    rollout), in lockstep blocks of at most ROLLOUT_BLOCK, and track the
    running maximum value."""
    checkpoints = checked_checkpoints(n_evals, checkpoints)
    best_value = -np.inf
    best_assignment = None
    recorded: list[tuple[int, float]] = []
    ci = 0
    for start in range(0, n_evals, ROLLOUT_BLOCK):
        block = _lockstep_labels(table, estimator, min(ROLLOUT_BLOCK, n_evals - start), rng)
        for evaluation, assignment in enumerate(assignments(block), start + 1):
            val = value_of(assignment, table)
            if val > best_value:
                best_value = val
                best_assignment = assignment
            while ci < len(checkpoints) and checkpoints[ci] == evaluation:
                recorded.append((evaluation, best_value))
                ci += 1
    return RolloutResult(best_assignment, best_value, tuple(recorded))
