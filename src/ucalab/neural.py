"""Value-to-go regressor: a small fully connected network trained with Adam.

The input is the flattened m x n binary assignment matrix (entry (i, j) is
1 when element j is labeled alternative i) plus one scalar carrying the
assignment's current value. Three ReLU hidden layers of width m*n + 1
feed an affine scalar output. Both the value feature and the regression
target are standardized by training-set statistics; the constants live in
the model so inference can undo them.

Training minimizes mean squared error on the standardized targets.
Everything is plain float64 numpy; gradients are exact backprop with the
ReLU subgradient at zero taken as zero.

All parameters live in one contiguous float64 vector, `MlpModel.params`,
stored layer by layer as the row-major weight matrix followed by the bias
vector (the UCAM payload order); `weights[k]` and `biases[k]` are views
into it. A training step writes its gradient into one vector of the same
layout, and Adam updates the parameters and both moments as whole vectors
with the same per-element expression a per-array update evaluates, so a
trained model is bitwise the model of the per-array arithmetic (the tests
keep that arithmetic as an oracle). Training stops with
TrainingDivergedError at the first epoch whose loss is not finite, or
whose Adam step left a parameter non-finite; no step is taken on
non-finite parameters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import MODEL_FORMAT, FormatError, PartialAssignment, UNASSIGNED, ValueTable, value_of

_LAYER_HEADER = struct.Struct("<II")

HIDDEN_LAYERS = 3
# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class TrainingDivergedError(ValueError):
    """Training reached a non-finite loss, so its model is unusable."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def _pack(weights, biases) -> np.ndarray:
    """One float64 vector holding each layer's row-major weights, then its biases."""
    return np.concatenate([np.ravel(a) for layer in zip(weights, biases) for a in layer], dtype=np.float64)


def _layer_views(flat: np.ndarray, model: "MlpModel") -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into `flat`, shaped like the model's."""
    weights, biases = [], []
    offset = 0
    for rows, cols in (W.shape for W in model.weights):
        weights.append(flat[offset : offset + rows * cols].reshape(rows, cols))
        offset += rows * cols
        biases.append(flat[offset : offset + rows])
        offset += rows
    return weights, biases


@dataclass
class MlpModel:
    """Weights/biases per layer plus the standardization constants.

    weights[k] has shape (out, in); biases[k] has shape (out,). The
    canonical architecture built by init_model is three hidden layers of
    width m*n + 1 and a scalar output, but forward() accepts any
    shape-consistent stack (handy for hand-built fixtures). Construction
    copies the given arrays into `params`, and weights/biases become views
    into it; copies, deep copies and pickles rebuild those views.
    """

    n: int
    m: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    value_norm: tuple[float, float] = (0.0, 1.0)
    target_norm: tuple[float, float] = (0.0, 1.0)
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError(f"layer {k} has inconsistent shapes")
            if k > 0 and W.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(f"layer {k} input width does not match layer {k - 1}")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k} contains non-finite parameters")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must be scalar")
        self.params = _pack(self.weights, self.biases)
        self.weights, self.biases = _layer_views(self.params, self)

    def __reduce__(self):
        return (MlpModel, (self.n, self.m, self.weights, self.biases, self.value_norm, self.target_norm))

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    def save(self, path: str | Path) -> None:
        """Write the UCAM format: header n, m and the four norm constants,
        then per layer u32 rows, u32 cols, row-major f64 weights, f64 biases.
        A model with non-finite parameters (diverged training) is refused."""
        if not np.isfinite(self.params).all():
            raise ValueError("model contains non-finite parameters")
        layers = []
        for W, b in zip(self.weights, self.biases):
            layers += [_LAYER_HEADER.pack(*W.shape), W.astype("<f8", copy=False), b.astype("<f8", copy=False)]
        MODEL_FORMAT.write(path, (self.n, self.m, *self.value_norm, *self.target_norm), *layers)

    @classmethod
    def load(cls, path: str | Path) -> "MlpModel":
        """Read a UCAM file; its first layer must take the m*n + 1 inputs
        that its header's n and m give."""
        (n, m, vmean, vstd, tmean, tstd), payload = MODEL_FORMAT.read(path)
        offset = 0
        weights, biases = [], []
        while offset < len(payload):
            if offset + _LAYER_HEADER.size > len(payload):
                raise FormatError(f"{path}: truncated layer header")
            rows, cols = _LAYER_HEADER.unpack_from(payload, offset)
            offset += _LAYER_HEADER.size
            need = (rows * cols + rows) * 8
            if offset + need > len(payload):
                raise FormatError(f"{path}: truncated layer payload")
            W = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset).reshape(rows, cols)
            offset += rows * cols * 8
            b = np.frombuffer(payload, dtype="<f8", count=rows, offset=offset)
            offset += rows * 8
            weights.append(W)
            biases.append(b)
        try:
            model = cls(n, m, weights, biases, (vmean, vstd), (tmean, tstd))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        if model.input_dim != m * n + 1:
            raise FormatError(
                f"{path}: first layer takes {model.input_dim} inputs, but n={n}, m={m} needs {m * n + 1}"
            )
        return model


def init_model(n: int, m: int, rng: np.random.Generator) -> MlpModel:
    """Canonical architecture with He-initialized weights and zero biases."""
    width = m * n + 1
    dims = [width] * (HIDDEN_LAYERS + 1) + [1]
    weights, biases = [], []
    for fan_out, fan_in in zip(dims[1:], dims[:-1]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(n, m, weights, biases)


def standardize(x: float, norm: tuple[float, float]) -> float:
    return (x - norm[0]) / norm[1]


def encode_input(
    assignment: PartialAssignment,
    current_value: float,
    m: int,
    value_norm: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Flattened binary assignment matrix plus the standardized value scalar."""
    n = assignment.n
    vec = np.zeros(m * n + 1)
    for j, lab in enumerate(assignment.labels):
        if lab == UNASSIGNED:
            continue
        if lab >= m:
            raise ValueError(f"label {lab} at element {j} exceeds m={m}")
        vec[lab * n + j] = 1.0
    vec[m * n] = standardize(current_value, value_norm)
    return vec


def _forward_std(model: MlpModel, X: np.ndarray):
    """Activations and the standardized scalar output for a (B, d) batch."""
    acts = [X]
    zs = []
    a = X
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ W.T
        z += b
        zs.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    out = a @ model.weights[-1].T + model.biases[-1]
    return acts, zs, out[:, 0]


def _output_std(model: MlpModel, X: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The standardized scalar output of `_forward_std`, evaluated in place
    without keeping activations. `scratch`, a (2, k) buffer with k at least
    B times the widest layer, takes the layer outputs in turn, so repeated
    evaluations allocate nothing."""
    rows = X.shape[0]
    last = len(model.weights) - 1
    a = X
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        out = None if scratch is None else scratch[k % 2, : rows * W.shape[0]].reshape(rows, W.shape[0])
        a = np.matmul(a, W.T, out=out)
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a[:, 0]


def forward(model: MlpModel, x) -> float | np.ndarray:
    """Network prediction, de-standardized by the target norm.

    Accepts a single input vector or a (B, d) batch.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    X = arr[None, :] if single else arr
    if X.shape[1] != model.input_dim:
        raise ValueError(f"input length {X.shape[1]} does not match model width {model.input_dim}")
    preds = _output_std(model, X) * model.target_norm[1] + model.target_norm[0]
    return float(preds[0]) if single else preds


def _encode_batch(model: MlpModel, pairs) -> tuple[np.ndarray, np.ndarray]:
    X = np.empty((len(pairs), model.input_dim))
    y = np.empty(len(pairs))
    for r, pair in enumerate(pairs):
        X[r] = encode_input(pair.assignment, pair.current_value, model.m, model.value_norm)
        y[r] = standardize(pair.target, model.target_norm)
    return X, y


def _loss_arrays(model: MlpModel, X: np.ndarray, y: np.ndarray, scratch: np.ndarray | None = None) -> float:
    return float(np.mean((y - _output_std(model, X, scratch)) ** 2))


def loss(model: MlpModel, pairs) -> float:
    """Mean squared error between standardized targets and predictions."""
    if not pairs:
        raise ValueError("loss requires a nonempty batch")
    X, y = _encode_batch(model, pairs)
    return _loss_arrays(model, X, y)


def _backward_arrays(
    model: MlpModel, X: np.ndarray, y: np.ndarray, grads_w: list[np.ndarray], grads_b: list[np.ndarray]
) -> None:
    """Write the gradient of the batch loss into grads_w/grads_b, arrays
    shaped like the model's weights/biases (views into one flat vector)."""
    acts, zs, out = _forward_std(model, X)
    back = ((2.0 / X.shape[0]) * (out - y))[:, None]
    np.matmul(back.T, acts[-1], out=grads_w[-1])
    back.sum(axis=0, out=grads_b[-1])
    for k in range(len(model.weights) - 2, -1, -1):
        back = back @ model.weights[k + 1]
        back *= zs[k] > 0.0
        np.matmul(back.T, acts[k], out=grads_w[k])
        back.sum(axis=0, out=grads_b[k])


def backward(model: MlpModel, pairs) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of `loss` for every weight and bias, as views into one
    vector laid out like `model.params`."""
    if not pairs:
        raise ValueError("backward requires a nonempty batch")
    X, y = _encode_batch(model, pairs)
    grads = _layer_views(np.empty_like(model.params), model)
    _backward_arrays(model, X, y, *grads)
    return grads


@dataclass
class AdamState:
    """Step count and the first and second moments, laid out like
    `MlpModel.params`, plus two scratch vectors each update reuses."""

    step: int
    mom: np.ndarray
    vel: np.ndarray
    scratch: np.ndarray = field(repr=False, compare=False)


def init_adam_state(model: MlpModel) -> AdamState:
    size = model.params.size
    return AdamState(step=0, mom=np.zeros(size), vel=np.zeros(size), scratch=np.empty((2, size)))


def _adam_update(params: np.ndarray, grad: np.ndarray, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update of the whole parameter vector in place.

    Evaluates the per-element expression
    mom = b1*mom + (1-b1)*g; vel = b2*vel + ((1-b2)*g)*g;
    p -= (lr*(mom/c1)) / (sqrt(vel/c2) + eps)
    in that order, so the bits match a per-array update.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    step, denom = state.scratch
    state.mom *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    state.mom += step
    state.vel *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    state.vel += step
    np.divide(state.vel, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    np.divide(state.mom, c1, out=step)
    step *= cfg.learning_rate
    step /= denom
    params -= step


def adam_step(
    model: MlpModel,
    grads: tuple[list[np.ndarray], list[np.ndarray]],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[MlpModel, AdamState]:
    """One Adam update with bias-corrected moments; parameters and state are
    updated in place and returned for chaining."""
    _adam_update(model.params, _pack(*grads), state, cfg)
    return model, state


def _norm_constants(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std())
    if std < 1e-12:
        std = 1.0
    return mean, std


def train(
    train_pairs,
    test_pairs,
    cfg: TrainConfig,
    n: int,
    m: int,
) -> tuple[MlpModel, list[tuple[int, float, float]]]:
    """Train a fresh model; returns it plus a (epoch, train_mse, test_mse)
    trace whose first row is the untrained epoch-0 state.

    Standardization constants come from the training split only. The
    training set is reshuffled each epoch from the seeded stream; the last
    mini-batch of an epoch may be short. Raises TrainingDivergedError at
    the first epoch whose train or test loss is not finite, or whose Adam
    step left a parameter non-finite; the epoch ends at that step, so no
    step runs on non-finite parameters. The overflow on the way there
    raises no numpy warnings.
    """
    if not train_pairs or not test_pairs:
        raise ValueError("train and test sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    model = init_model(n, m, rng)
    model.value_norm = _norm_constants([p.current_value for p in train_pairs])
    model.target_norm = _norm_constants([p.target for p in train_pairs])
    X_train, y_train = _encode_batch(model, train_pairs)
    X_test, y_test = _encode_batch(model, test_pairs)
    state = init_adam_state(model)
    grad = np.empty_like(model.params)
    grads = _layer_views(grad, model)
    # every layer of the canonical architecture is at most input_dim wide
    scratch = np.empty((2, max(len(X_train), len(X_test)) * model.input_dim))
    trace: list[tuple[int, float, float]] = []

    def record(epoch: int) -> None:
        train_loss = _loss_arrays(model, X_train, y_train, scratch)
        row = (epoch, train_loss, _loss_arrays(model, X_test, y_test, scratch))
        if not (np.isfinite(row[1]) and np.isfinite(row[2]) and np.isfinite(model.params).all()):
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: train loss {row[1]!r}, test loss {row[2]!r}"
            )
        trace.append(row)

    size = len(train_pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        record(0)
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.permutation(size)
            for start in range(0, size, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                _backward_arrays(model, X_train[idx], y_train[idx], *grads)
                _adam_update(model.params, grad, state, cfg)
                if not np.isfinite(model.params).all():
                    break
            record(epoch)
    return model, trace


def grid_search(
    train_pairs,
    test_pairs,
    lr_grid,
    batch_grid,
    cfg: TrainConfig,
    n: int,
    m: int,
) -> tuple[TrainConfig, MlpModel, list[tuple[int, float, float]]]:
    """Train one model per (learning rate, batch size) cell and keep the one
    with the lowest final test loss; ties go to the earlier cell in
    row-major (lr, batch) order. A cell whose training diverged ranks last,
    and a grid where every cell diverged is refused."""
    if not lr_grid or not batch_grid:
        raise ValueError("grids must be nonempty")
    best = None
    for lr in lr_grid:
        for batch_size in batch_grid:
            cell = replace(cfg, learning_rate=lr, batch_size=batch_size)
            try:
                model, trace = train(train_pairs, test_pairs, cell, n, m)
            except TrainingDivergedError:
                continue
            if best is None or trace[-1][2] < best[2][-1][2]:
                best = (cell, model, trace)
    if best is None:
        raise TrainingDivergedError("training diverged in every grid cell")
    return best


def predict_value_to_go(model: MlpModel, assignment: PartialAssignment, table: ValueTable) -> float:
    """Estimated best completion value for a partial assignment."""
    current = value_of(assignment, table)
    return forward(model, encode_input(assignment, current, model.m, model.value_norm))
