import math
import tracemalloc

import numpy as np
import pytest

from ucalab.core import ProblemSpec
from ucalab.valuegen import NpdParams, TrapParams, generate_npd, generate_trap, trap_mean

FULL_SCALE_TRAP = TrapParams(sigma=0.1, delta=0.1, tau_threshold=10.0, epsilon=0.1)


def reference_trap_mean(s, delta, tau, eps):
    # direct evaluation of the piecewise formula, independent of the library
    base = s - s * s
    if s < tau:
        return delta * base
    return delta * (base + (math.exp((2.0 + eps) * math.log(s)) if s else 0.0))


def test_trap_mean_zero_size():
    assert trap_mean(0, FULL_SCALE_TRAP) == 0.0
    assert trap_mean(0, TrapParams(tau_threshold=0.0)) == 0.0  # 0^(2+eps) = 0


def test_trap_mean_singleton_below_threshold():
    assert trap_mean(1, FULL_SCALE_TRAP) == 0.0


def test_trap_mean_above_threshold_frozen_value():
    # oracle value: 0.1 * (20 - 400 + exp(2.1*ln 20))
    assert trap_mean(20, FULL_SCALE_TRAP) == pytest.approx(15.97131390694251, rel=1e-12)
    assert trap_mean(20, FULL_SCALE_TRAP) == pytest.approx(
        reference_trap_mean(20, 0.1, 10.0, 0.1), rel=1e-15
    )


def test_trap_mean_negative_between_two_and_threshold():
    for s in range(2, 10):
        assert trap_mean(s, FULL_SCALE_TRAP) < 0.0


def test_trap_mean_jump_at_integer_threshold():
    p = TrapParams(delta=0.1, tau_threshold=6.0, epsilon=0.1)
    below = trap_mean(6, TrapParams(delta=0.1, tau_threshold=7.0, epsilon=0.1))
    at = trap_mean(6, p)
    assert at - below == pytest.approx(0.1 * math.exp(2.1 * math.log(6)), rel=1e-12)
    # continuity elsewhere: consecutive sizes inside one branch move smoothly
    diffs = [trap_mean(s + 1, p) - trap_mean(s, p) for s in range(0, 5)]
    assert all(np.isfinite(diffs))


def test_trap_mean_threshold_comparison_is_inclusive():
    p = TrapParams(delta=1.0, tau_threshold=5.0, epsilon=0.1)
    assert trap_mean(5, p) == pytest.approx(5 - 25 + math.exp(2.1 * math.log(5)), rel=1e-12)
    assert trap_mean(4, p) == 4 - 16


def test_npd_sigma_zero_is_exactly_mu():
    table = generate_npd(ProblemSpec(6, 3, seed=1), NpdParams(mu=1.25, sigma=0.0))
    assert np.all(table.values == 1.25)


def test_npd_moments():
    table = generate_npd(ProblemSpec(10, 4, seed=123), NpdParams(mu=1.0, sigma=0.1))
    assert table.values.mean() == pytest.approx(1.0, abs=0.01)
    assert table.values.std() == pytest.approx(0.1, abs=0.01)


def test_npd_determinism_and_seed_sensitivity():
    spec = ProblemSpec(8, 3, seed=77)
    a = generate_npd(spec, NpdParams())
    b = generate_npd(spec, NpdParams())
    assert np.array_equal(a.values, b.values)
    c = generate_npd(ProblemSpec(8, 3, seed=78), NpdParams())
    assert not np.array_equal(a.values, c.values)


def test_generated_files_are_byte_identical(tmp_path):
    spec = ProblemSpec(8, 3, seed=5)
    for gen, params in ((generate_npd, NpdParams()), (generate_trap, FULL_SCALE_TRAP)):
        p1, p2 = tmp_path / "a.ucav", tmp_path / "b.ucav"
        gen(spec, params).save(p1)
        gen(spec, params).save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        p1.unlink(), p2.unlink()


def test_trap_sigma_zero_entries_equal_trap_mean():
    p = TrapParams(sigma=0.0, delta=0.1, tau_threshold=4.0, epsilon=0.1)
    table = generate_trap(ProblemSpec(6, 2, seed=3), p)
    for mask in (0, 0b1, 0b11, 0b111111):
        expected = trap_mean(int(mask).bit_count(), p)
        assert table.values[mask, 0] == expected
        assert table.values[mask, 1] == expected


def test_trap_mean_at_full_scale_bundle_of_ten():
    spec = ProblemSpec(20, 10, seed=99)
    table = generate_trap(spec, FULL_SCALE_TRAP)
    sizes = np.bitwise_count(np.arange(1 << 20, dtype=np.uint64))
    entries = table.values[sizes == 10, :]
    # oracle: 0.1 * (10 - 100 + exp(2.1*ln 10)), noise averages out
    assert entries.mean() == pytest.approx(3.589254117941677, abs=0.001)
    assert trap_mean(10, FULL_SCALE_TRAP) == pytest.approx(
        reference_trap_mean(10, 0.1, 10.0, 0.1), rel=1e-15
    )


def test_standardized_residuals_pass_loose_normality_check():
    spec = ProblemSpec(14, 8, seed=31)  # 131072 draws
    for table, means in _tables_with_means(spec):
        resid = ((table.values - means) / 0.1).ravel()
        skew = float((resid**3).mean())
        kurt = float((resid**4).mean()) - 3.0
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1


def _tables_with_means(spec):
    npd = generate_npd(spec, NpdParams(mu=1.0, sigma=0.1))
    yield npd, 1.0
    p = TrapParams(sigma=0.1, delta=0.1, tau_threshold=spec.n / 2, epsilon=0.1)
    trap = generate_trap(spec, p)
    sizes = np.bitwise_count(np.arange(1 << spec.n, dtype=np.uint64)).astype(np.intp)
    means = np.array([trap_mean(s, p) for s in range(spec.n + 1)])[sizes][:, None]
    yield trap, means


def test_params_validation():
    with pytest.raises(ValueError):
        NpdParams(sigma=-0.1)
    with pytest.raises(ValueError):
        TrapParams(sigma=-1.0)
    with pytest.raises(ValueError):
        trap_mean(-1, FULL_SCALE_TRAP)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("params, field", [
    (NpdParams, "mu"), (NpdParams, "sigma"),
    (TrapParams, "sigma"), (TrapParams, "delta"), (TrapParams, "tau_threshold"), (TrapParams, "epsilon"),
])
def test_params_refuse_non_finite_values(params, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        params(**{field: value})


def expression_npd(spec, p):
    return p.mu + p.sigma * np.random.default_rng(spec.seed).standard_normal((1 << spec.n, spec.m))


def expression_trap(spec, p):
    sizes = np.bitwise_count(np.arange(1 << spec.n, dtype=np.uint64)).astype(np.intp)
    means = np.array([reference_trap_mean(s, p.delta, p.tau_threshold, p.epsilon) for s in range(spec.n + 1)])
    return means[sizes][:, None] + p.sigma * np.random.default_rng(spec.seed).standard_normal((1 << spec.n, spec.m))


GENERATORS = [
    (generate_npd, expression_npd, NpdParams(mu=1.3, sigma=0.7)),
    (generate_trap, expression_trap, TrapParams(sigma=0.3, delta=0.2, tau_threshold=4.0, epsilon=0.1)),
]


@pytest.mark.parametrize("generate, expression, params", GENERATORS, ids=["npd", "trap"])
@pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (5, 3, 1), (10, 4, 7), (12, 9, 2)])
def test_in_place_tables_equal_the_expression_form_bitwise(generate, expression, params, n, m, seed):
    spec = ProblemSpec(n, m, seed)
    assert generate(spec, params).values.tobytes() == expression(spec, params).tobytes()


@pytest.mark.parametrize("generate, expression, params", GENERATORS, ids=["npd", "trap"])
def test_generators_peak_below_one_and_a_half_tables(generate, expression, params):
    tracemalloc.start()
    try:
        table = generate(ProblemSpec(16, 8, 3), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.values.nbytes
