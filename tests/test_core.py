import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_encode
from ucalab.core import (
    FormatError,
    PartialAssignment,
    ProblemSpec,
    UNASSIGNED,
    ValueTable,
    expand_children,
    value_of,
)
from ucalab.dataset import DatasetConfig, LabeledPair, build_dataset, load_dataset, save_dataset
from ucalab.neural import MlpModel, encode_input, init_model
from ucalab.valuegen import NpdParams, generate_npd


def small_table(n, m, seed=0):
    return generate_npd(ProblemSpec(n, m, seed), NpdParams(mu=0.0, sigma=1.0))


def test_problem_spec_validation():
    ProblemSpec(1, 1, 0)
    ProblemSpec(30, 5, 2**64 - 1)
    with pytest.raises(ValueError):
        ProblemSpec(0, 2, 0)
    with pytest.raises(ValueError):
        ProblemSpec(31, 2, 0)
    with pytest.raises(ValueError):
        ProblemSpec(4, 0, 0)
    with pytest.raises(ValueError):
        ProblemSpec(4, 2, -1)


def test_value_table_validation():
    with pytest.raises(ValueError):
        ValueTable(2, 2, np.zeros((4, 3)))
    bad = np.zeros((4, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        ValueTable(2, 2, bad)
    table = ValueTable(2, 2, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        table.values[0, 0] = 1.0


def test_value_of_all_unassigned_sums_empty_bundles():
    table = ValueTable(2, 3, np.arange(12, dtype=float).reshape(4, 3))
    empty = PartialAssignment.empty(2)
    # every bundle is empty, so each alternative contributes values[0, t]
    assert value_of(empty, table) == 0.0 + 1.0 + 2.0


def test_value_of_single_nonzero_term():
    values = np.zeros((4, 2))
    values[0b11, 0] = 5.0
    table = ValueTable(2, 2, values)
    s = PartialAssignment.from_labels([0, 0])
    assert value_of(s, table) == 5.0


def test_value_of_matches_per_element_reaggregation():
    table = small_table(3, 2, seed=11)
    s = PartialAssignment.from_labels([0, 1, 0])
    # oracle: rebuild each bundle mask from the labels by hand, then sum
    masks = [0, 0]
    for j, lab in enumerate([0, 1, 0]):
        masks[lab] |= 1 << j
    expected = float(table.values[masks[0], 0]) + float(table.values[masks[1], 1])
    assert value_of(s, table) == expected


def test_value_of_dimension_mismatch():
    table = small_table(3, 2)
    with pytest.raises(ValueError):
        value_of(PartialAssignment.empty(4), table)
    with pytest.raises(ValueError):
        value_of(PartialAssignment.from_labels([2, UNASSIGNED, UNASSIGNED]), table)


def test_expand_children_single_alternative():
    s = PartialAssignment.empty(3)
    children = expand_children(s, 1, 1)
    assert len(children) == 1
    assert children[0].labels == (UNASSIGNED, 0, UNASSIGNED)


def test_expand_children_orders_by_alternative():
    s = PartialAssignment.empty(2)
    children = expand_children(s, 0, 3)
    assert [c.labels for c in children] == [
        (0, UNASSIGNED),
        (1, UNASSIGNED),
        (2, UNASSIGNED),
    ]


def test_expand_children_rejects_assigned_element():
    s = PartialAssignment.from_labels([1, UNASSIGNED])
    with pytest.raises(ValueError):
        expand_children(s, 0, 2)


def test_expand_children_structure_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        s = PartialAssignment.empty(n)
        free = list(range(n))
        rng.shuffle(free)
        for step, e in enumerate(free[: n - 1]):
            children = expand_children(s, e, m)
            assert len(children) == m
            assert len(set(c.labels for c in children)) == m
            for child in children:
                assert child.assigned_mask == s.assigned_mask | (1 << e)
                # restriction to previously assigned elements is unchanged
                for j in range(n):
                    if j != e:
                        assert child.labels[j] == s.labels[j]
                # bundles stay pairwise disjoint
                bm = child.bundle_masks(m)
                for i in range(m):
                    for k in range(i + 1, m):
                        assert bm[i] & bm[k] == 0
            s = children[int(rng.integers(m))]


def test_value_of_label_permutation_covariance():
    rng = np.random.default_rng(7)
    table = small_table(5, 3, seed=21)
    for _ in range(20):
        labels = [int(x) for x in rng.integers(-1, 3, size=5)]
        s = PartialAssignment.from_labels(labels)
        i, j = 0, 2
        swapped = [j if lab == i else i if lab == j else lab for lab in labels]
        cols = np.arange(3)
        cols[[i, j]] = cols[[j, i]]
        swapped_table = ValueTable(5, 3, table.values[:, cols])
        assert value_of(s, table) == pytest.approx(
            value_of(PartialAssignment.from_labels(swapped), swapped_table), rel=1e-12
        )


def test_matrix_encoding_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        labels = [int(x) for x in rng.integers(-1, m, size=n)]
        s = PartialAssignment.from_labels(labels)
        value, norm = float(rng.normal()), (float(rng.normal()), float(rng.uniform(0.5, 2.0)))
        expected, _ = reference_encode([LabeledPair(s, value, 0.0)], n, m, norm, (0.0, 1.0))
        assert np.array_equal(encode_input(s, value, m, norm), expected[0])


def test_partial_assignment_mask_consistency_enforced():
    # the mask is derived from the labels, so a caller cannot pass one
    assert PartialAssignment((0, UNASSIGNED)).assigned_mask == 0b01
    assert PartialAssignment.empty(3).with_label(2, 1).assigned_mask == 0b100
    with pytest.raises(TypeError):
        PartialAssignment((0, UNASSIGNED), 0b10)
    with pytest.raises(ValueError):
        PartialAssignment((-3, UNASSIGNED))


def test_table_file_round_trip(tmp_path):
    table = small_table(4, 3, seed=9)
    path = tmp_path / "t.ucav"
    table.save(path)
    loaded = ValueTable.load(path)
    assert loaded.n == 4 and loaded.m == 3 and loaded.seed == 9
    assert np.array_equal(loaded.values, table.values)
    # saving the loaded table reproduces the same bytes
    path2 = tmp_path / "t2.ucav"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_table_file_rejects_corruption(tmp_path):
    table = small_table(3, 2)
    path = tmp_path / "t.ucav"
    table.save(path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.ucav"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        ValueTable.load(bad_magic)

    bad_version = tmp_path / "bad_version.ucav"
    tweaked = bytearray(raw)
    tweaked[4] = 9
    bad_version.write_bytes(bytes(tweaked))
    with pytest.raises(ValueError, match="version"):
        ValueTable.load(bad_version)

    truncated = tmp_path / "short.ucav"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError, match="bytes"):
        ValueTable.load(truncated)


def test_table_file_layout_is_the_documented_one(tmp_path):
    values = np.arange(12.0).reshape(4, 3) - 5.5
    path = tmp_path / "t.ucav"
    ValueTable(2, 3, values, seed=2**40 + 7).save(path)
    header = struct.pack("<4sBIIQ", b"UCAV", 1, 2, 3, 2**40 + 7)
    assert path.read_bytes() == header + struct.pack("<12d", *values.ravel())


# Each writes a valid file of one format to `path` and returns its loader.
def _save_table(path):
    small_table(3, 2).save(path)
    return ValueTable.load


def _save_dataset(path):
    table = small_table(4, 2, seed=23)
    pairs = build_dataset(ProblemSpec(4, 2, 23), table, DatasetConfig(kappa=1, pairs_per_level=3, seed=29))
    save_dataset(path, pairs, 4, 2, 1)
    return load_dataset


def _save_model(path):
    init_model(2, 2, np.random.default_rng(31)).save(path)
    return MlpModel.load


@pytest.mark.parametrize("save", [_save_table, _save_dataset, _save_model], ids=["UCAV", "UCAD", "UCAM"])
@pytest.mark.parametrize("damage, message", [
    (lambda raw: b"QQQQ" + raw[4:], "bad magic"),
    (lambda raw: raw[:4] + b"\x02" + raw[5:], "unsupported version 2"),
    (lambda raw: raw[:12], "truncated"),
    (lambda raw: raw[:-8], "bytes|truncated layer payload"),
], ids=["magic", "version", "short-header", "payload-size"])
def test_every_format_refuses_damaged_files_naming_them(tmp_path, save, damage, message):
    good = tmp_path / "good.bin"
    load = save(good)
    load(good)
    bad = tmp_path / "damaged.bin"
    bad.write_bytes(damage(good.read_bytes()))
    with pytest.raises(FormatError, match=message) as info:
        load(bad)
    assert str(info.value).startswith(f"{bad}: ")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-1, max_value=5), min_size=1, max_size=12))
def test_from_labels_mask_matches_labels(labels):
    s = PartialAssignment.from_labels(labels)
    for j, lab in enumerate(labels):
        assert ((s.assigned_mask >> j) & 1) == (lab != UNASSIGNED)
    assert s.assigned_mask.bit_count() == sum(1 for lab in labels if lab != UNASSIGNED)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
def test_expand_children_are_distinct_and_disjoint(n, m, rnd):
    labels = [rnd.choice([UNASSIGNED] + list(range(m))) for _ in range(n)]
    free = [j for j, lab in enumerate(labels) if lab == UNASSIGNED]
    if not free:
        labels[rnd.randrange(n)] = UNASSIGNED
        free = [j for j, lab in enumerate(labels) if lab == UNASSIGNED]
    s = PartialAssignment.from_labels(labels)
    e = rnd.choice(free)
    children = expand_children(s, e, m)
    assert len(set(c.labels for c in children)) == m
    for child in children:
        union = 0
        for mask in child.bundle_masks(m):
            assert union & mask == 0
            union |= int(mask)
        assert union == child.assigned_mask
