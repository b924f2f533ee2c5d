import copy
import struct

import numpy as np
import pytest

from ucalab import neural
from ucalab.core import FormatError, PartialAssignment, ProblemSpec
from ucalab.dataset import DatasetConfig, LabeledPair, build_dataset, split_dataset
from ucalab.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    backward,
    encode_input,
    forward,
    grid_search,
    init_adam_state,
    init_model,
    loss,
    predict_value_to_go,
    train,
)
from ucalab.valuegen import NpdParams, generate_npd


def make_pairs(n, m, count, rng, target_fn=None):
    """Random partial assignments with synthetic values and targets."""
    pairs = []
    for _ in range(count):
        labels = [int(x) for x in rng.integers(-1, m, size=n)]
        assignment = PartialAssignment.from_labels(labels)
        current = float(rng.normal())
        if target_fn is None:
            target = float(rng.normal())
        else:
            target = target_fn(assignment, current)
        pairs.append(LabeledPair(assignment, current, target))
    return pairs


def test_encode_empty_centered_value():
    s = PartialAssignment.empty(3)
    vec = encode_input(s, 4.0, 2, value_norm=(4.0, 2.0))
    assert np.all(vec == 0.0)
    assert vec.shape == (7,)


def test_encode_row_major_layout():
    s = PartialAssignment.from_labels([0, 1])
    vec = encode_input(s, 0.0, 2)
    assert vec[:4].tolist() == [1.0, 0.0, 0.0, 1.0]
    assert vec[4] == 0.0


def test_encode_popcount_matches_assigned_count():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        labels = [int(x) for x in rng.integers(-1, m, size=n)]
        s = PartialAssignment.from_labels(labels)
        vec = encode_input(s, float(rng.normal()), m)
        assert int(vec[: m * n].sum()) == s.assigned_mask.bit_count()


def test_encode_rejects_out_of_range_label():
    s = PartialAssignment.from_labels([3])
    with pytest.raises(ValueError):
        encode_input(s, 0.0, 2)


def test_forward_zero_model_returns_target_mean():
    model = init_model(2, 2, np.random.default_rng(0))
    for W in model.weights:
        W[:] = 0.0
    model.target_norm = (7.5, 3.0)
    x = np.zeros(model.input_dim)
    assert forward(model, x) == 7.5


def test_forward_hand_computed_single_unit():
    # one ReLU unit: 3 * max(0, 2*1 - 1) = 3
    model = MlpModel(
        n=1,
        m=1,
        weights=[np.array([[2.0]]), np.array([[3.0]])],
        biases=[np.array([-1.0]), np.array([0.0])],
    )
    assert forward(model, np.array([1.0])) == 3.0
    assert forward(model, np.array([0.25])) == 0.0  # z = -0.5 clips


def test_forward_matches_recorded_activation_pattern():
    rng = np.random.default_rng(5)
    model = init_model(3, 2, rng)
    x = rng.normal(size=model.input_dim)
    # recompute with explicit matrix products and frozen ReLU masks
    a = x
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = W @ a + b
        a = z * (z > 0)
    expected = float((model.weights[-1] @ a + model.biases[-1])[0])
    assert forward(model, x) == pytest.approx(expected, rel=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(6)
    model = init_model(2, 3, rng)
    X = rng.normal(size=(4, model.input_dim))
    batch = forward(model, X)
    assert batch.shape == (4,)
    for r in range(4):
        assert batch[r] == pytest.approx(forward(model, X[r]), rel=1e-12)


def test_loss_zero_when_predictions_match():
    model = init_model(2, 2, np.random.default_rng(7))
    for W in model.weights:
        W[:] = 0.0
    model.target_norm = (2.0, 1.0)
    pairs = make_pairs(2, 2, 5, np.random.default_rng(8), target_fn=lambda s, c: 2.0)
    assert loss(model, pairs) == 0.0


def test_loss_single_pair_unit_error():
    model = init_model(2, 2, np.random.default_rng(9))
    for W in model.weights:
        W[:] = 0.0
    model.target_norm = (1.0, 2.0)  # standardized target of 3.0 is 1.0
    pairs = [LabeledPair(PartialAssignment.empty(2), 0.0, 3.0)]
    assert loss(model, pairs) == 1.0


def test_loss_invariant_to_batch_order():
    rng = np.random.default_rng(10)
    model = init_model(3, 2, rng)
    pairs = make_pairs(3, 2, 16, rng)
    shuffled = list(pairs)
    np.random.default_rng(11).shuffle(shuffled)
    assert loss(model, pairs) == pytest.approx(loss(model, shuffled), rel=1e-12)
    with pytest.raises(ValueError):
        loss(model, [])


def test_backward_zero_error_batch_gives_zero_gradients():
    model = init_model(2, 2, np.random.default_rng(12))
    for W in model.weights:
        W[:] = 0.0
    model.target_norm = (4.0, 1.0)
    pairs = make_pairs(2, 2, 6, np.random.default_rng(13), target_fn=lambda s, c: 4.0)
    grads_w, grads_b = backward(model, pairs)
    for g in grads_w + grads_b:
        assert np.all(g == 0.0)


def test_backward_hand_computed_chain_rule():
    # n=1, m=1 encoding is [matrix bit, value scalar]; the value weight is 0,
    # so the network is t -> 3*relu(2*bit - 1) and d/dw at bit=1, target=0 is
    # 2*(0-3)*(-3)*1 = 18
    model = MlpModel(
        n=1,
        m=1,
        weights=[np.array([[2.0, 0.0]]), np.array([[3.0]])],
        biases=[np.array([-1.0]), np.array([0.0])],
    )
    pair = LabeledPair(PartialAssignment.from_labels([0]), 0.0, 0.0)
    grads_w, grads_b = backward(model, [pair])
    assert grads_w[0][0, 0] == 18.0
    assert grads_b[0][0] == 18.0  # same chain, d z/d b = 1
    assert grads_w[1][0, 0] == pytest.approx(2.0 * (3.0 - 0.0) * 1.0)  # relu output is 1


def test_backward_matches_central_finite_differences():
    from ucalab.neural import _encode_batch, _forward_std

    rng = np.random.default_rng(14)
    model = init_model(3, 2, rng)
    # check at a generic parameter point: zero biases put dead rows exactly
    # on the ReLU kink, where a straddling difference is not the subgradient
    for b in model.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    h = 1e-5

    def clears_kinks(pairs):
        X, _ = _encode_batch(model, pairs)
        _, zs, _ = _forward_std(model, X)
        return all(float(np.abs(z).min()) > 50 * h for z in zs)

    batches = []
    seed = 20
    while len(batches) < 2:
        pairs = make_pairs(3, 2, 8, np.random.default_rng(seed))
        seed += 1
        if clears_kinks(pairs):
            batches.append(pairs)

    worst = 0.0
    for pairs in batches:
        grads_w, grads_b = backward(model, pairs)
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for p, g in zip(params, grads):
                flat_p = p.ravel()
                flat_g = g.ravel()
                for idx in range(flat_p.size):
                    saved = flat_p[idx]
                    flat_p[idx] = saved + h
                    up = loss(model, pairs)
                    flat_p[idx] = saved - h
                    down = loss(model, pairs)
                    flat_p[idx] = saved
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(flat_g[idx]), 1e-6)
                    worst = max(worst, abs(fd - flat_g[idx]) / denom)
    assert worst < 1e-4, worst


def test_adam_zero_gradient_leaves_parameters():
    model = init_model(2, 2, np.random.default_rng(15))
    before = [W.copy() for W in model.weights]
    state = init_adam_state(model)
    zeros = ([np.zeros_like(W) for W in model.weights], [np.zeros_like(b) for b in model.biases])
    adam_step(model, zeros, state, TrainConfig(0.1, 1, 1))
    for W, old in zip(model.weights, before):
        assert np.array_equal(W, old)


def test_adam_first_step_hand_evaluated():
    model = MlpModel(1, 1, [np.array([[0.5]])], [np.array([0.0])])
    state = init_adam_state(model)
    cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
    grads = ([np.array([[1.0]])], [np.array([0.0])])
    adam_step(model, grads, state, cfg)
    # hand evaluation at t=1: m_hat = v_hat = 1, update = -lr/(1 + eps)
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    m_hat = (1 - beta1) * 1.0 / (1 - beta1)
    v_hat = (1 - beta2) * 1.0 / (1 - beta2)
    expected = 0.5 - 0.1 * m_hat / (np.sqrt(v_hat) + eps)
    assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
    assert model.weights[0][0, 0] == pytest.approx(0.4, abs=1e-6)
    assert state.step == 1


def test_adam_is_deterministic():
    rng = np.random.default_rng(16)
    model_a = init_model(2, 2, np.random.default_rng(17))
    model_b = copy.deepcopy(model_a)
    pairs = make_pairs(2, 2, 4, rng)
    cfg = TrainConfig(0.01, 4, 1)
    state_a, state_b = init_adam_state(model_a), init_adam_state(model_b)
    for _ in range(2):
        adam_step(model_a, backward(model_a, pairs), state_a, cfg)
        adam_step(model_b, backward(model_b, pairs), state_b, cfg)
    for Wa, Wb in zip(model_a.weights, model_b.weights):
        assert np.array_equal(Wa, Wb)


def linear_target(n, m, rng):
    w = rng.normal(size=m * n + 1)

    def fn(assignment, current):
        vec = encode_input(assignment, current, m)
        return float(w @ vec)

    return fn


def test_train_learns_linear_target():
    rng = np.random.default_rng(18)
    target_fn = linear_target(3, 2, rng)
    pairs = make_pairs(3, 2, 400, rng, target_fn=target_fn)
    train_pairs, test_pairs = pairs[:360], pairs[360:]
    cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=50, seed=4)
    model, trace = train(train_pairs, test_pairs, cfg, 3, 2)
    assert trace[0][0] == 0 and trace[-1][0] == 50
    assert trace[-1][2] <= 0.5 * trace[0][2]


def test_train_zero_learning_rate_is_identity():
    rng = np.random.default_rng(19)
    pairs = make_pairs(2, 2, 30, rng)
    cfg = TrainConfig(learning_rate=0.0, batch_size=8, epochs=3, seed=5)
    model, trace = train(pairs[:25], pairs[25:], cfg, 2, 2)
    reference = init_model(2, 2, np.random.default_rng(5))
    for W, ref in zip(model.weights, reference.weights):
        assert np.array_equal(W, ref)
    assert trace[0][1] == trace[-1][1]


def test_train_determinism():
    rng = np.random.default_rng(20)
    pairs = make_pairs(3, 2, 60, rng)
    cfg = TrainConfig(1e-3, 16, 5, seed=21)
    model_a, trace_a = train(pairs[:50], pairs[50:], cfg, 3, 2)
    model_b, trace_b = train(pairs[:50], pairs[50:], cfg, 3, 2)
    assert trace_a == trace_b
    for Wa, Wb in zip(model_a.weights, model_b.weights):
        assert np.array_equal(Wa, Wb)


def test_train_rejects_empty_sets():
    with pytest.raises(ValueError):
        train([], [], TrainConfig(1e-3, 4, 1), 2, 2)


def test_grid_search_single_cell():
    rng = np.random.default_rng(22)
    pairs = make_pairs(2, 2, 40, rng)
    cfg = TrainConfig(1e-3, 8, 2, seed=23)
    best_cfg, model, trace = grid_search(pairs[:35], pairs[35:], [1e-3], [8], cfg, 2, 2)
    assert best_cfg.learning_rate == 1e-3 and best_cfg.batch_size == 8
    assert trace[-1][0] == 2


def test_grid_search_never_picks_dead_learning_rate():
    rng = np.random.default_rng(24)
    target_fn = linear_target(2, 2, rng)
    pairs = make_pairs(2, 2, 200, rng, target_fn=target_fn)
    cfg = TrainConfig(1e-3, 16, 20, seed=25)
    best_cfg, _, _ = grid_search(pairs[:180], pairs[180:], [0.0, 1e-3], [16], cfg, 2, 2)
    assert best_cfg.learning_rate == 1e-3


def test_grid_search_selects_minimum_cell():
    rng = np.random.default_rng(26)
    pairs = make_pairs(2, 2, 80, rng, target_fn=linear_target(2, 2, rng))
    cfg = TrainConfig(1e-3, 8, 5, seed=27)
    lr_grid, batch_grid = [1e-4, 1e-3], [8, 16]
    best_cfg, _, best_trace = grid_search(pairs[:70], pairs[70:], lr_grid, batch_grid, cfg, 2, 2)
    from dataclasses import replace

    cells = {}
    for lr in lr_grid:
        for bs in batch_grid:
            _, trace = train(pairs[:70], pairs[70:], replace(cfg, learning_rate=lr, batch_size=bs), 2, 2)
            cells[(lr, bs)] = trace[-1][2]
    assert best_trace[-1][2] == min(cells.values())
    assert cells[(best_cfg.learning_rate, best_cfg.batch_size)] == min(cells.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_search_never_picks_diverged_cell():
    rng = np.random.default_rng(24)
    pairs = make_pairs(2, 2, 60, rng, target_fn=linear_target(2, 2, rng))
    cfg = TrainConfig(1e-3, 16, 3, seed=25)
    best_cfg, model, trace = grid_search(pairs[:50], pairs[50:], [1e200, 1e-3], [16], cfg, 2, 2)
    assert best_cfg.learning_rate == 1e-3
    assert np.isfinite(trace[-1][2])
    with pytest.raises(ValueError, match="diverged"):
        grid_search(pairs[:50], pairs[50:], [1e200], [16], cfg, 2, 2)


def test_model_file_round_trip(tmp_path):
    model = init_model(3, 2, np.random.default_rng(29))
    model.value_norm = (1.5, 0.5)
    model.target_norm = (-2.0, 3.0)
    path = tmp_path / "m.ucam"
    model.save(path)
    loaded = MlpModel.load(path)
    assert (loaded.n, loaded.m) == (3, 2)
    assert loaded.value_norm == model.value_norm
    assert loaded.target_norm == model.target_norm
    for Wa, Wb in zip(loaded.weights, model.weights):
        assert np.array_equal(Wa, Wb)
    for ba, bb in zip(loaded.biases, model.biases):
        assert np.array_equal(ba, bb)
    x = np.random.default_rng(30).normal(size=model.input_dim)
    assert forward(loaded, x) == forward(model, x)


def test_model_file_rejects_corruption(tmp_path):
    model = init_model(2, 2, np.random.default_rng(31))
    path = tmp_path / "m.ucam"
    model.save(path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ucam"
    bad.write_bytes(b"ZZZZ" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        MlpModel.load(bad)
    short = tmp_path / "short.ucam"
    short.write_bytes(bytes(raw[:-4]))
    with pytest.raises(ValueError, match="truncated"):
        MlpModel.load(short)


def test_model_file_layout_is_the_documented_one(tmp_path):
    # n=1, m=1: one hidden layer of width 2 on the m*n + 1 = 2 inputs
    W0, b0 = np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0.25, -0.75])
    W1, b1 = np.array([[4.0, -1.5]]), np.array([2.0])
    model = MlpModel(1, 1, [W0, W1], [b0, b1], value_norm=(1.5, 0.5), target_norm=(-2.0, 3.0))
    path = tmp_path / "m.ucam"
    model.save(path)
    expected = struct.pack("<4sBIIdddd", b"UCAM", 1, 1, 1, 1.5, 0.5, -2.0, 3.0)
    expected += struct.pack("<II4d2d", 2, 2, *W0.ravel(), *b0)
    expected += struct.pack("<II2d1d", 1, 2, *W1.ravel(), *b1)
    assert path.read_bytes() == expected
    assert np.array_equal(MlpModel.load(path).params, model.params)


def test_model_load_refuses_header_that_disagrees_with_the_first_layer(tmp_path):
    path = tmp_path / "m.ucam"
    init_model(3, 2, np.random.default_rng(33)).save(path)
    raw = path.read_bytes()
    # the layers of an n=3, m=2 net (7 inputs) under a header saying n=5, m=2 (11 inputs)
    path.write_bytes(raw[:5] + struct.pack("<II", 5, 2) + raw[13:])
    with pytest.raises(FormatError, match="first layer takes 7 inputs, but n=5, m=2 needs 11"):
        MlpModel.load(path)


def test_model_shape_validation():
    with pytest.raises(ValueError):
        MlpModel(1, 1, [np.zeros((2, 2))], [np.zeros(3)])
    with pytest.raises(ValueError):
        MlpModel(1, 1, [np.zeros((2, 2)), np.zeros((1, 3))], [np.zeros(2), np.zeros(1)])
    with pytest.raises(ValueError):
        MlpModel(1, 1, [np.full((1, 2), np.nan)], [np.zeros(1)])


def test_predict_value_to_go_zero_model_constant():
    table = generate_npd(ProblemSpec(4, 2, 1), NpdParams())
    model = init_model(4, 2, np.random.default_rng(32))
    for W in model.weights:
        W[:] = 0.0
    model.target_norm = (3.25, 2.0)
    s = PartialAssignment.from_labels([0, 1, -1, -1])
    assert predict_value_to_go(model, s, table) == 3.25


def test_trained_model_beats_untrained_on_held_out_level_one():
    spec = ProblemSpec(6, 2, 33)
    table = generate_npd(spec, NpdParams(mu=0.0, sigma=1.0))
    pairs = build_dataset(spec, table, DatasetConfig(kappa=1, pairs_per_level=300, seed=34))
    train_pairs, test_pairs = split_dataset(pairs, 0.2, np.random.default_rng(35))
    cfg = TrainConfig(1e-3, 32, 60, seed=36)
    trained, _ = train(train_pairs, test_pairs, cfg, 6, 2)
    untrained = init_model(6, 2, np.random.default_rng(36))
    untrained.value_norm = trained.value_norm
    untrained.target_norm = trained.target_norm

    def mae(model):
        errs = [abs(pair.target - predict_value_to_go(model, pair.assignment, table)) for pair in test_pairs]
        return float(np.mean(errs))

    assert mae(trained) < mae(untrained)


def test_predictions_finite_over_random_sweep():
    spec = ProblemSpec(8, 3, 37)
    table = generate_npd(spec, NpdParams())
    model = init_model(8, 3, np.random.default_rng(38))
    rng = np.random.default_rng(39)
    for _ in range(10_000):
        labels = [int(x) for x in rng.integers(-1, 3, size=8)]
        s = PartialAssignment.from_labels(labels)
        assert np.isfinite(predict_value_to_go(model, s, table))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(-1e-3, 4, 1)
    with pytest.raises(ValueError):
        TrainConfig(1e-3, 0, 1)
    with pytest.raises(ValueError):
        TrainConfig(1e-3, 4, 0)


def test_model_save_refuses_non_finite_parameters(tmp_path):
    model = init_model(2, 2, np.random.default_rng(32))
    model.weights[1][0, 0] = np.nan
    path = tmp_path / "nan.ucam"
    with pytest.raises(ValueError, match="non-finite"):
        model.save(path)
    assert not path.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_at_first_diverged_epoch():
    rng = np.random.default_rng(24)
    pairs = make_pairs(2, 2, 60, rng, target_fn=linear_target(2, 2, rng))
    with pytest.raises(ValueError, match="diverged at epoch 1:"):
        train(pairs[:50], pairs[50:], TrainConfig(1e200, 16, 3, seed=25), 2, 2)


def test_train_takes_no_adam_step_on_non_finite_parameters(monkeypatch):
    # lr=1e200 overflows within the first epoch of 9 steps; every step
    # after that used to run on NaN parameters until the epoch ended
    finite_at_call = []
    real = neural._adam_update

    def counting_update(params, grad, state, cfg):
        finite_at_call.append(bool(np.isfinite(params).all()))
        real(params, grad, state, cfg)

    monkeypatch.setattr(neural, "_adam_update", counting_update)
    rng = np.random.default_rng(40)
    pairs = make_pairs(2, 2, 80, rng, target_fn=linear_target(2, 2, rng))
    with pytest.raises(TrainingDivergedError, match="diverged at epoch 1:"):
        train(pairs[:70], pairs[70:], TrainConfig(1e200, 8, 3, seed=41), 2, 2)
    assert 1 <= len(finite_at_call) < 9
    assert all(finite_at_call), finite_at_call
