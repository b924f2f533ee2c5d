import math
import statistics
import struct
from collections import Counter

import numpy as np
import pytest

from oracles import all_completion_values

from ucalab import exact
from ucalab.bench import prediction_error_report
from ucalab.core import FormatError, PartialAssignment, ProblemSpec, UNASSIGNED, expand_children, value_of
from ucalab.dataset import (
    DatasetConfig,
    LabeledPair,
    build_dataset,
    label_levels,
    load_dataset,
    sample_partial_labels,
    save_dataset,
    split_dataset,
)
from ucalab.exact import BudgetExceededError
from ucalab.valuegen import NpdParams, generate_npd


def npd_table(n, m, seed):
    return generate_npd(ProblemSpec(n, m, seed), NpdParams(mu=0.0, sigma=1.0))


def test_sample_extremes():
    rng = np.random.default_rng(0)
    empty, full = sample_partial_labels(6, 3, [6, 0], 1, rng)
    assert (empty == UNASSIGNED).all()
    assert ((full >= 0) & (full < 3)).all()
    for level in (-1, 7):
        with pytest.raises(ValueError):
            sample_partial_labels(6, 3, [level], 1, rng)


def test_sample_labels_of_any_width():
    # m = 40000 used to fail with numpy's "high is out of bounds for int16"
    wide = sample_partial_labels(3, 40_000, [0, 1, 2], 200, np.random.default_rng(23))
    assert wide.min() >= UNASSIGNED and wide.max() < 40_000
    # m = 32768 still fits int16, so its draws replay the int16 stream
    levels, per_level, m = [0, 1, 2], 200, 1 << 15
    rng = np.random.default_rng(24)
    free = np.repeat(levels, per_level)
    ranks = rng.permuted(np.broadcast_to(np.arange(3, dtype=np.int8), (len(free), 3)), axis=1)
    expected = np.where(ranks < (3 - free)[:, None], rng.integers(0, m, ranks.shape, dtype=np.int16), UNASSIGNED)
    got = sample_partial_labels(3, m, levels, per_level, np.random.default_rng(24))
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_sample_uniform_over_subsets_and_labelings():
    # one record per call, as a one-record caller draws; the band is the
    # binomial sd times the normal quantile that keeps the chance of any of
    # the 20 subset and 8 labeling cells falsely failing below 1e-6
    rng = np.random.default_rng(42)
    draws = 100_000
    subset_counts = Counter()
    labeling_counts = Counter()
    fixed_subset = None
    for _ in range(draws):
        s = PartialAssignment.from_labels(sample_partial_labels(6, 2, [3], 1, rng)[0])
        subset_counts[s.assigned_mask] += 1
        if fixed_subset is None:
            fixed_subset = s.assigned_mask
        if s.assigned_mask == fixed_subset:
            labeling_counts[s.labels] += 1
    n_subsets = math.comb(6, 3)
    z = statistics.NormalDist().inv_cdf(1 - 1e-6 / (2 * (n_subsets + 8)))
    assert len(subset_counts) == n_subsets
    p = 1.0 / n_subsets
    sigma = math.sqrt(p * (1 - p) / draws)
    for count in subset_counts.values():
        assert abs(count / draws - p) <= z * sigma
    per_subset = sum(labeling_counts.values())
    q = 1.0 / 8  # 2^3 labelings of a fixed 3-subset
    sigma_q = math.sqrt(q * (1 - q) / per_subset)
    assert len(labeling_counts) == 8
    for count in labeling_counts.values():
        assert abs(count / per_subset - q) <= z * sigma_q


def test_batched_sampler_is_uniform_at_each_level():
    # every (subset, labeling) outcome of a level is equally likely; the
    # band is the binomial sd times the normal quantile that keeps the chance
    # of any of the cells falsely failing below 1e-6
    n, m, per_level = 6, 2, 100_000
    levels = list(range(n + 1))
    rows = sample_partial_labels(n, m, levels, per_level, np.random.default_rng(42))
    assert rows.shape == (len(levels) * per_level, n)
    outcomes = {u: math.comb(n, n - u) * m ** (n - u) for u in levels}
    z = statistics.NormalDist().inv_cdf(1 - 1e-6 / (2 * sum(outcomes.values())))
    for u, block in zip(levels, rows.reshape(len(levels), per_level, n)):
        assert ((block != UNASSIGNED).sum(axis=1) == n - u).all()
        assert ((block >= UNASSIGNED) & (block < m)).all()
        counts = Counter(map(bytes, block.astype(np.int8)))
        assert len(counts) == outcomes[u]
        p = 1.0 / outcomes[u]
        sigma = math.sqrt(p * (1 - p) / per_level)
        for count in counts.values():
            assert abs(count / per_level - p) <= z * sigma


def test_label_levels_records_are_the_sampler_rows_with_exact_labels():
    table = npd_table(7, 3, 21)
    levels, per_level = [3, 1, 2], 25
    rows = sample_partial_labels(7, 3, levels, per_level, np.random.default_rng(22))
    pairs = label_levels(table, levels, per_level, np.random.default_rng(22), 10**6)
    assert [pair.assignment.labels for pair in pairs] == [tuple(row) for row in rows.tolist()]
    for pair in pairs:
        assert pair.current_value == value_of(pair.assignment, table)
        assert pair.target == float(all_completion_values(table, pair.assignment).max())


def test_label_levels_reads_a_one_shot_iterator_of_levels():
    table = npd_table(6, 2, 23)
    once = label_levels(table, iter([1, 2]), 5, np.random.default_rng(24), 10**6)
    assert once == label_levels(table, range(1, 3), 5, np.random.default_rng(24), 10**6)
    assert len(once) == 10


def test_batched_sampler_refuses_a_level_out_of_range():
    with pytest.raises(ValueError, match="must lie in 0..6"):
        sample_partial_labels(6, 2, [1, 7], 3, np.random.default_rng(0))


def test_build_dataset_level_histogram():
    spec = ProblemSpec(6, 2, 3)
    table = npd_table(6, 2, 3)
    cfg = DatasetConfig(kappa=2, pairs_per_level=5, seed=1)
    pairs = build_dataset(spec, table, cfg)
    assert len(pairs) == 10
    unassigned = [p.assignment.n - p.assignment.assigned_mask.bit_count() for p in pairs]
    assert unassigned == [1] * 5 + [2] * 5


def test_kappa_one_targets_are_single_step_maxima():
    spec = ProblemSpec(5, 3, 4)
    table = npd_table(5, 3, 4)
    cfg = DatasetConfig(kappa=1, pairs_per_level=20, seed=2)
    for pair in build_dataset(spec, table, cfg):
        free = [j for j, lab in enumerate(pair.assignment.labels) if lab == UNASSIGNED]
        assert len(free) == 1
        candidates = [value_of(child, table) for child in expand_children(pair.assignment, free[0], 3)]
        assert pair.target == max(candidates)
        assert pair.current_value == value_of(pair.assignment, table)


def test_targets_match_flat_enumeration():
    spec = ProblemSpec(7, 3, 5)
    table = npd_table(7, 3, 5)
    cfg = DatasetConfig(kappa=3, pairs_per_level=30, seed=6)
    pairs = build_dataset(spec, table, cfg)
    for pair in pairs:
        assert pair.target == float(all_completion_values(table, pair.assignment).max())


def test_build_dataset_determinism():
    spec = ProblemSpec(6, 3, 7)
    table = npd_table(6, 3, 7)
    cfg = DatasetConfig(kappa=2, pairs_per_level=10, seed=9)
    assert build_dataset(spec, table, cfg) == build_dataset(spec, table, cfg)


def test_build_dataset_budget_error_names_level():
    spec = ProblemSpec(8, 3, 1)
    table = npd_table(8, 3, 1)
    cfg = DatasetConfig(kappa=4, pairs_per_level=100, seed=0)
    with pytest.raises(BudgetExceededError, match="unassigned"):
        build_dataset(spec, table, cfg, node_budget=500)


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(kappa=0)
    with pytest.raises(ValueError):
        DatasetConfig(kappa=2, pairs_per_level=0)
    spec = ProblemSpec(3, 2, 0)
    table = npd_table(3, 2, 0)
    with pytest.raises(ValueError):
        build_dataset(spec, table, DatasetConfig(kappa=4, pairs_per_level=1))
    for other in (ProblemSpec(4, 2, 0), ProblemSpec(3, 3, 0)):
        with pytest.raises(ValueError, match="problem spec and value table dimensions disagree"):
            build_dataset(other, table, DatasetConfig(kappa=1, pairs_per_level=1))


def test_split_sizes_and_union():
    rng = np.random.default_rng(11)
    spec = ProblemSpec(6, 2, 13)
    table = npd_table(6, 2, 13)
    pairs = build_dataset(spec, table, DatasetConfig(kappa=2, pairs_per_level=5, seed=3))
    train, test = split_dataset(pairs, 0.1, rng)
    assert len(train) == 9 and len(test) == 1
    assert Counter(train + test) == Counter(pairs)
    empty_train, empty_test = split_dataset([], 0.1, rng)
    assert empty_train == [] and empty_test == []
    for n_total in (1, 7, 23):
        subset = (pairs * 3)[:n_total]
        tr, te = split_dataset(subset, 0.25, rng)
        assert len(tr) == math.ceil(0.75 * n_total)
        assert Counter(tr + te) == Counter(subset)
    for fraction in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(ValueError, match="split fraction"):
            split_dataset(pairs, fraction, rng)


def test_dataset_file_round_trip(tmp_path):
    spec = ProblemSpec(6, 3, 17)
    table = npd_table(6, 3, 17)
    pairs = build_dataset(spec, table, DatasetConfig(kappa=2, pairs_per_level=8, seed=19))
    path = tmp_path / "d.ucad"
    save_dataset(path, pairs, 6, 3, 2)
    loaded, n, m, kappa = load_dataset(path)
    assert (n, m, kappa) == (6, 3, 2)
    assert loaded == pairs
    # rewriting the loaded records is byte-identical
    path2 = tmp_path / "d2.ucad"
    save_dataset(path2, loaded, n, m, kappa)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_file_rejects_corruption(tmp_path):
    spec = ProblemSpec(4, 2, 23)
    table = npd_table(4, 2, 23)
    pairs = build_dataset(spec, table, DatasetConfig(kappa=1, pairs_per_level=3, seed=29))
    path = tmp_path / "d.ucad"
    save_dataset(path, pairs, 4, 2, 1)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.ucad"
    bad.write_bytes(b"YYYY" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        load_dataset(bad)

    short = tmp_path / "short.ucad"
    short.write_bytes(bytes(raw[:-4]))
    with pytest.raises(ValueError, match="bytes"):
        load_dataset(short)


def test_save_dataset_refuses_labels_that_collide_with_the_sentinel(tmp_path):
    # alternative 254 is the largest label byte that is not the sentinel
    pairs = [LabeledPair(PartialAssignment.from_labels([254, UNASSIGNED]), 0.5, 1.5)]
    path = tmp_path / "wide.ucad"
    save_dataset(path, pairs, 2, 255, 1)
    assert load_dataset(path) == (pairs, 2, 255, 1)
    pairs = [LabeledPair(PartialAssignment.from_labels([255, UNASSIGNED]), 0.5, 1.5)]
    path = tmp_path / "too_wide.ucad"
    with pytest.raises(ValueError, match="m=256"):
        save_dataset(path, pairs, 2, 256, 1)
    assert not path.exists()
    # a label at or above m would be written, then refused by the loader
    with pytest.raises(ValueError, match="m=2"):
        save_dataset(path, [LabeledPair(PartialAssignment.from_labels([3, UNASSIGNED]), 0.5, 1.5)], 2, 2, 1)
    assert not path.exists()


def test_save_dataset_refuses_records_of_another_length(tmp_path):
    path = tmp_path / "d.ucad"
    pairs = [LabeledPair(PartialAssignment.from_labels(labels), 0.5, 1.5) for labels in ([0, 1], [0, 1, UNASSIGNED])]
    for records in (pairs[1:], pairs):
        with pytest.raises(ValueError, match="record dimension does not match dataset header"):
            save_dataset(path, records, 2, 2, 1)
    assert not path.exists()


def test_dataset_refuses_non_finite_values_on_save_and_load(tmp_path):
    # a NaN value used to be saved and loaded, and `ucalab train` then
    # reported divergence at epoch 0
    good = LabeledPair(PartialAssignment.from_labels([0, UNASSIGNED]), 0.5, 1.5)
    path = tmp_path / "nan.ucad"
    for bad in (LabeledPair(good.assignment, np.nan, 1.5), LabeledPair(good.assignment, 0.5, np.inf)):
        with pytest.raises(ValueError, match="record 1: non-finite current value or target"):
            save_dataset(path, [good, bad], 2, 2, 1)
        assert not path.exists()
    save_dataset(path, [good] * 3, 2, 2, 1)
    raw = path.read_bytes()
    # the last 8 bytes are record 2's target
    path.write_bytes(raw[:-8] + struct.pack("<d", np.nan))
    with pytest.raises(FormatError, match="record 2: non-finite current value or target"):
        load_dataset(path)


def write_ucad(path, n, m, records=()):
    """A UCAD file written byte by byte: (mask, label bytes) records with zero values."""
    payload = b"".join(
        struct.pack("<I", mask) + bytes(labels) + struct.pack("<dd", 0.0, 0.0) for mask, labels in records
    )
    path.write_bytes(struct.pack("<4sBIIIQ", b"UCAD", 1, n, m, 1, len(records)) + payload)


def test_load_dataset_refuses_impossible_headers_and_labels(tmp_path):
    path = tmp_path / "d.ucad"
    write_ucad(path, 3, 2, [(0b011, [0, 1, 255])])
    assert load_dataset(path)[0][0].assignment.labels == (0, 1, UNASSIGNED)
    # label byte 7 with m=2 used to load and fail later, inside training
    write_ucad(path, 3, 2, [(0b011, [0, 1, 255]), (0b110, [255, 0, 7])])
    with pytest.raises(FormatError, match="record 1: label 7 at element 2 exceeds m=2"):
        load_dataset(path)
    write_ucad(path, 3, 2, [(0b011, [0, 1, 255]), (0b111, [0, 1, 255])])
    with pytest.raises(FormatError, match="record 1: mask inconsistent with labels"):
        load_dataset(path)
    for n, m in ((0, 2), (40, 2), (3, 0), (3, 256)):
        write_ucad(path, n, m)
        with pytest.raises(FormatError, match=f"invalid dimensions n={n}, m={m}"):
            load_dataset(path)


def test_over_budget_level_is_refused_before_any_labeling(monkeypatch):
    # levels 1 and 2 fit the budget; level 3 (1,000 x 70 DP updates) does not
    calls = []
    real = exact._best_completion
    monkeypatch.setattr(exact, "_best_completion", lambda *a: calls.append(a) or real(*a))
    spec = ProblemSpec(8, 4, 5)
    table = npd_table(8, 4, 5)
    cfg = DatasetConfig(kappa=3, pairs_per_level=1000, seed=0)
    with pytest.raises(BudgetExceededError, match="level with 3 unassigned"):
        build_dataset(spec, table, cfg, node_budget=50_000)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(BudgetExceededError, match="level with 3 unassigned"):
        prediction_error_report(lambda s: 0.0, table, [1, 2, 3], 1000, rng, node_budget=50_000)
    assert calls == []
    assert rng.bit_generator.state == state
