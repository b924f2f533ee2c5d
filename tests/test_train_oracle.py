"""Bitwise differential tests of flat-parameter training against the
per-array oracle in tests/oracles.py, plus the aliasing of the parameter
views in copied and loaded models."""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceAdam, reference_encode, reference_gradients, reference_train

from ucalab.core import PartialAssignment
from ucalab.dataset import LabeledPair
from ucalab.neural import MlpModel, TrainConfig, _adam_update, _pack, backward, init_adam_state, init_model, train


def random_pairs(n, m, count, rng):
    pairs = []
    for _ in range(count):
        labels = [int(x) for x in rng.integers(-1, m, size=n)]
        pairs.append(LabeledPair(PartialAssignment.from_labels(labels), float(rng.normal()), float(rng.normal())))
    return pairs


def same_bits(arrays_a, arrays_b):
    return len(arrays_a) == len(arrays_b) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(arrays_a, arrays_b)
    )


def assert_views_of_params(model):
    for p in (*model.weights, *model.biases):
        assert np.shares_memory(p, model.params)


@st.composite
def training_runs(draw):
    """n <= 4, m <= 3, 1-3 epochs, a training set that leaves a short last batch,
    and a test set that may be the larger one."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    batch = draw(st.integers(2, 9))
    size = batch * draw(st.integers(1, 4)) + draw(st.integers(1, batch - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = random_pairs(n, m, size + draw(st.integers(1, 20)), rng)
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
        batch_size=batch,
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return n, m, pairs[:size], pairs[size:], cfg


@settings(max_examples=60, deadline=None)
@given(training_runs())
def test_train_matches_per_array_reference_bitwise(run):
    n, m, train_pairs, test_pairs, cfg = run
    assert len(train_pairs) % cfg.batch_size != 0
    model, trace = train(train_pairs, test_pairs, cfg, n, m)
    weights, biases, value_norm, target_norm, ref_trace = reference_train(
        train_pairs, test_pairs, n, m, cfg.learning_rate, cfg.batch_size, cfg.epochs, cfg.seed
    )
    assert trace == ref_trace
    assert (model.value_norm, model.target_norm) == (value_norm, target_norm)
    assert same_bits(model.weights, weights)
    assert same_bits(model.biases, biases)
    assert_views_of_params(model)


def step_against_reference(models, steps=3):
    """Take Adam steps on every model and on a per-array copy of the first;
    every model must stay bitwise equal to the reference."""
    pairs = random_pairs(models[0].n, models[0].m, 12, np.random.default_rng(41))
    cfg = TrainConfig(1e-2, 12, 1)
    ref_w = [W.copy() for W in models[0].weights]
    ref_b = [b.copy() for b in models[0].biases]
    initial = [W.copy() for W in ref_w]
    X, y = reference_encode(pairs, models[0].n, models[0].m, models[0].value_norm, models[0].target_norm)
    ref_adam = ReferenceAdam(ref_w, ref_b, cfg.learning_rate)
    states = [init_adam_state(model) for model in models]
    for _ in range(steps):
        for model, state in zip(models, states):
            _adam_update(model.params, _pack(*backward(model, pairs)), state, cfg)
        ref_adam.step(ref_w, ref_b, *reference_gradients(ref_w, ref_b, X, y))
    assert not same_bits(ref_w, initial)  # the steps moved the weights
    for model in models:
        assert_views_of_params(model)
        assert same_bits(model.weights, ref_w)
        assert same_bits(model.biases, ref_b)


def test_deep_copied_model_steps_like_the_original():
    original = init_model(3, 2, np.random.default_rng(40))
    clone = copy.deepcopy(original)
    assert not np.shares_memory(clone.params, original.params)
    step_against_reference([original, clone])


def test_loaded_model_steps_like_the_saved_one(tmp_path):
    original = init_model(3, 2, np.random.default_rng(40))
    original.value_norm = (0.5, 2.0)
    original.target_norm = (-1.0, 3.0)
    path = tmp_path / "m.ucam"
    original.save(path)
    loaded = MlpModel.load(path)
    step_against_reference([original, loaded])
