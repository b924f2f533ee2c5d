"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's search code: completions are
enumerated flat via a mixed-radix label grid and scored by gathering the
m bundle entries of each completion and reducing along the row. The TRAP
positive-value probability is computed in closed form over bundle-size
profiles, without sampling and without `ucalab.bench`. Network training is
written out per weight and bias array, without a flat parameter vector and
without `ucalab.neural`. Best-of-N rollouts are run one rollout and one
element at a time, without `ucalab.search`, and Monte Carlo samples one
sample and one element at a time, without `ucalab.bench`.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ucalab.core import PartialAssignment, UNASSIGNED, ValueTable
from ucalab.neural import forward
from ucalab.valuegen import TrapParams


def bundle_masks(assignment: PartialAssignment, m: int) -> list[int]:
    """Each alternative's bundle as a bitmask of the elements labeled with it."""
    masks = [0] * m
    for j, lab in enumerate(assignment.labels):
        if lab != UNASSIGNED:
            masks[lab] |= 1 << j
    return masks


def all_completion_values(table: ValueTable, assignment: PartialAssignment) -> np.ndarray:
    """Value of every completion of `assignment`, one per m^u label tuple."""
    n, m = table.n, table.m
    free = [j for j in range(n) if assignment.labels[j] == UNASSIGNED]
    u = len(free)
    count = m**u
    masks = np.repeat(np.array([bundle_masks(assignment, m)], dtype=np.int64), count, axis=0)
    if u:
        grids = np.indices((m,) * u).reshape(u, count).T
        rows = np.arange(count)
        for pos, j in enumerate(free):
            masks[rows, grids[:, pos]] |= 1 << j
    return table.values[masks, np.arange(m)].sum(axis=1)


def reference_sampled_values(table: ValueTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """Values of `count` uniform complete assignments, one assignment and one
    element at a time: the same (count, n) int8 label draw, then each
    assignment's bundle masks built element by element and its m bundle
    entries gathered and summed."""
    n, m = table.n, table.m
    labels = rng.integers(0, m, size=(count, n), dtype=np.int8)
    out = np.empty(count)
    for r in range(count):
        masks = [0] * m
        for j in range(n):
            masks[labels[r, j]] |= 1 << j
        out[r] = table.values[masks, np.arange(m)].sum()
    return out


def brute_force_best(table: ValueTable, assignment: PartialAssignment | None = None) -> float:
    if assignment is None:
        assignment = PartialAssignment.empty(table.n)
    return float(all_completion_values(table, assignment).max())


def _partitions(n: int, parts: int, largest: int):
    """Nonincreasing tuples of at most `parts` positive integers <= `largest` summing to n."""
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def trap_positive_probability(n: int, m: int, p: TrapParams, strict: bool = False) -> float:
    """P(V > 0) for a uniform complete assignment of a TRAP table.

    Averaged over assignments and over the table's noise, without sampling:
    bundle sizes are multinomial(n; 1/m each) and V is the sum of the m
    bundle means plus N(0, m * sigma^2) noise, so

        P(V > 0) = sum over size profiles of P(profile) * Phi(sum mean(s) / (sigma * sqrt(m)))

    where the profiles are the partitions of n into at most m parts. The
    mean is written out from the documented TRAP formula, delta * (s - s^2)
    plus delta * s^(2+eps) at and above tau, not taken from the generator;
    `strict=True` gives the bonus only above tau instead. With sigma = 0
    the normal factor is the indicator of sum mean(s) > 0.
    """

    def mean(s: int) -> float:
        bonus = s > p.tau_threshold if strict else s >= p.tau_threshold
        return p.delta * (s - s * s) + (p.delta * s ** (2.0 + p.epsilon) if bonus else 0.0)

    total = 0.0
    for parts in _partitions(n, m, n):
        sizes = parts + (0,) * (m - len(parts))
        ways = math.factorial(n) * math.factorial(m)
        for s in sizes:
            ways //= math.factorial(s)
        for count in Counter(sizes).values():
            ways //= math.factorial(count)
        mu = sum(mean(s) for s in sizes)
        if p.sigma == 0:
            positive = float(mu > 0)
        else:
            positive = 0.5 * math.erfc(-mu / (p.sigma * math.sqrt(2 * m)))
        total += ways / m**n * positive
    return total


def binomial_band(prob: float, samples: int, k: float = 6.0) -> tuple[float, float]:
    """prob +/- k binomial standard deviations of a `samples`-draw frequency."""
    half = k * math.sqrt(prob * (1.0 - prob) / samples)
    return prob - half, prob + half


def reference_encode(pairs, n: int, m: int, value_norm, target_norm) -> tuple[np.ndarray, np.ndarray]:
    """(B, m*n + 1) inputs and standardized targets: the one-hot label matrix
    flattened row-major (alternative i, element j at i*n + j), then the
    standardized current value."""
    X = np.zeros((len(pairs), m * n + 1))
    y = np.empty(len(pairs))
    for r, pair in enumerate(pairs):
        for j, lab in enumerate(pair.assignment.labels):
            if lab != UNASSIGNED:
                X[r, lab * n + j] = 1.0
        X[r, m * n] = (pair.current_value - value_norm[0]) / value_norm[1]
        y[r] = (pair.target - target_norm[0]) / target_norm[1]
    return X, y


def reference_forward(weights, biases, X):
    """ReLU hidden layers and an affine scalar output, keeping activations."""
    acts, zs = [X], []
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        z = a @ W.T + b
        zs.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    return acts, zs, (a @ weights[-1].T + biases[-1])[:, 0]


def reference_gradients(weights, biases, X, y):
    """Backprop of mean((y - out)^2), one new array per weight and bias."""
    acts, zs, out = reference_forward(weights, biases, X)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    delta = ((2.0 / X.shape[0]) * (out - y))[:, None]
    grads_w[-1] = delta.T @ acts[-1]
    grads_b[-1] = delta.sum(axis=0)
    back = delta @ weights[-1]
    for k in range(len(weights) - 2, -1, -1):
        dz = back * (zs[k] > 0.0)
        grads_w[k] = dz.T @ acts[k]
        grads_b[k] = dz.sum(axis=0)
        back = dz @ weights[k]
    return grads_w, grads_b


class ReferenceAdam:
    """Adam with bias-corrected moments, one moment pair per array."""

    def __init__(self, weights, biases, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.t = 0
        self.moments = [(np.zeros_like(p), np.zeros_like(p)) for p in (*weights, *biases)]

    def step(self, weights, biases, grads_w, grads_b) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, (mom, vel) in zip((*weights, *biases), (*grads_w, *grads_b), self.moments):
            mom *= self.beta1
            mom += (1.0 - self.beta1) * g
            vel *= self.beta2
            vel += (1.0 - self.beta2) * g * g
            p -= self.lr * (mom / c1) / (np.sqrt(vel / c2) + self.epsilon)


def reference_train(train_pairs, test_pairs, n: int, m: int, lr: float, batch_size: int, epochs: int, seed: int):
    """Training written out per array: He-initialized weights (one
    standard_normal draw per layer, in layer order) and zero biases for
    three hidden layers of width m*n + 1, training-split standardization
    (a zero std counts as 1), then per epoch one permutation from the same
    stream and mini-batch Adam steps, the last batch possibly short.

    Returns (weights, biases, value_norm, target_norm, trace) with the trace
    rows (epoch, train_mse, test_mse), epoch 0 being the untrained state.
    """
    rng = np.random.default_rng(seed)
    dims = [m * n + 1] * 4 + [1]
    weights = [rng.standard_normal((out, inp)) * np.sqrt(2.0 / inp) for out, inp in zip(dims[1:], dims[:-1])]
    biases = [np.zeros(out) for out in dims[1:]]

    def norm(values):
        arr = np.asarray(values, dtype=np.float64)
        std = float(arr.std())
        return float(arr.mean()), std if std >= 1e-12 else 1.0

    value_norm = norm([p.current_value for p in train_pairs])
    target_norm = norm([p.target for p in train_pairs])
    X_train, y_train = reference_encode(train_pairs, n, m, value_norm, target_norm)
    X_test, y_test = reference_encode(test_pairs, n, m, value_norm, target_norm)

    def mse(X, y):
        return float(np.mean((y - reference_forward(weights, biases, X)[2]) ** 2))

    adam = ReferenceAdam(weights, biases, lr)
    trace = [(0, mse(X_train, y_train), mse(X_test, y_test))]
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(len(train_pairs))
        for start in range(0, len(train_pairs), batch_size):
            idx = perm[start : start + batch_size]
            adam.step(weights, biases, *reference_gradients(weights, biases, X_train[idx], y_train[idx]))
        trace.append((epoch, mse(X_train, y_train), mse(X_test, y_test)))
    return weights, biases, value_norm, target_norm, trace


def reference_best_of_n(table: ValueTable, kind: str, model, n_evals: int, checkpoints, rng: np.random.Generator):
    """(best value, its labels, (checkpoint, best so far) pairs) of n_evals
    greedy rollouts, run one after another and one element at a time.

    Each rollout draws its element order, then for each element scores the m
    children: by the child value, kept as current - old bundle + new bundle
    entry; by `rng.random(m)` (kind "random"); or by one `forward` call on
    the m children's encodings (kind "neural"). It commits the first
    best-scoring child and is scored by gathering its m bundle entries.
    """
    n, m = table.n, table.m
    values = table.values
    best_value, best_labels, recorded = -math.inf, None, []
    for evaluation in range(1, n_evals + 1):
        labels = [UNASSIGNED] * n
        masks = [0] * m
        current = float(values[masks, np.arange(m)].sum())
        for e in rng.permutation(n):
            e = int(e)
            child_values = [current - values[masks[t], t] + values[masks[t] | 1 << e, t] for t in range(m)]
            if kind == "current":
                scores = child_values
            elif kind == "random":
                scores = rng.random(m)
            else:
                batch = np.zeros((m, m * n + 1))
                for t in range(m):
                    for j, lab in enumerate(labels):
                        if lab != UNASSIGNED:
                            batch[t, lab * n + j] = 1.0
                    batch[t, t * n + e] = 1.0
                    batch[t, m * n] = (child_values[t] - model.value_norm[0]) / model.value_norm[1]
                scores = forward(model, batch)
            pick = max(range(m), key=lambda t: (scores[t], -t))
            labels[e] = pick
            masks[pick] |= 1 << e
            current = child_values[pick]
        value = float(values[masks, np.arange(m)].sum())
        if value > best_value:
            best_value, best_labels = value, tuple(labels)
        if evaluation in checkpoints:
            recorded.append((evaluation, best_value))
    return best_value, best_labels, tuple(recorded)
