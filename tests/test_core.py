import gc
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bundle_masks, reference_encode
from ucalab.core import (
    TABLE_FORMAT,
    FormatError,
    PartialAssignment,
    ProblemSpec,
    UNASSIGNED,
    ValueTable,
    assignments,
    checked_integers,
    expand_children,
    release_bundle_indices,
    value_of,
)
from ucalab.dataset import DatasetConfig, LabeledPair, build_dataset, load_dataset, save_dataset
from ucalab.exact import exact_value_to_go
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


def test_value_table_stores_a_c_ordered_frozen_array():
    # the kernels read values.reshape(-1), which must be a view, never a copy
    values = np.asfortranarray(np.arange(24, dtype=float).reshape(8, 3))
    table = ValueTable(3, 3, values)
    assert table.values.flags.c_contiguous and not table.values.flags.writeable
    assert np.array_equal(table.values, values)
    assert np.shares_memory(table.values.reshape(-1), table.values)


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
    for evaluate in (value_of, exact_value_to_go):
        with pytest.raises(ValueError, match="assignment has 4 elements, table expects 3"):
            evaluate(PartialAssignment.empty(4), table)
        with pytest.raises(ValueError, match="label 2 at element 0 exceeds m=2"):
            evaluate(PartialAssignment.from_labels([2, UNASSIGNED, UNASSIGNED]), table)


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
    with pytest.raises(ValueError, match="element 0 is already assigned"):
        expand_children(s, 0, 2)
    for element in (-1, 2):
        with pytest.raises(ValueError, match=f"element {element} out of range"):
            expand_children(s, element, 2)


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
                bm = bundle_masks(child, m)
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
    assert expand_children(PartialAssignment.empty(3), 2, 2)[1].assigned_mask == 0b100
    with pytest.raises(TypeError):
        PartialAssignment((0, UNASSIGNED), 0b10)
    with pytest.raises(ValueError):
        PartialAssignment((-3, UNASSIGNED))


def test_value_table_refuses_seed_outside_u64():
    # a negative seed used to be accepted and fail in `save` as a bare struct.error
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            ValueTable(2, 2, np.zeros((4, 2)), seed=seed)


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


def test_table_load_holds_the_values_once(tmp_path):
    # the payload is read straight into the table's array: no bytes copy of
    # the file sits beside it (loading used to peak at twice the table)
    path = tmp_path / "t.ucav"
    small_table(14, 8).save(path)
    tracemalloc.start()
    try:
        loaded = ValueTable.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.nbytes <= peak < 1.5 * loaded.values.nbytes


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


def test_table_load_refuses_impossible_dimensions_and_non_finite_entries(tmp_path):
    path = tmp_path / "t.ucav"
    TABLE_FORMAT.write(path, (0, 2, 0))
    with pytest.raises(FormatError, match="invalid dimensions n=0, m=2"):
        ValueTable.load(path)
    TABLE_FORMAT.write(path, (1, 1, 0), np.array([0.5, np.nan], dtype="<f8"))
    with pytest.raises(FormatError, match="value table contains non-finite entries") as info:
        ValueTable.load(path)
    assert str(info.value).startswith(f"{path}: ")


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


@pytest.mark.parametrize("labels", [[1.5, 0.9, -0.5], np.array([1.5, 0.9, -0.5]), [0, float("nan")], [float("inf")]])
def test_from_labels_refuses_non_integral_labels(labels):
    # these used to be truncated to (1, 0, 0)
    with pytest.raises(ValueError, match="labels must be integers"):
        PartialAssignment.from_labels(labels)


def test_integer_rule_names_only_the_non_integral_values():
    assert checked_integers([3, 2.0, np.int8(-1), np.float64(4.0)], "levels") == [3, 2, -1, 4]
    assert all(type(v) is int for v in checked_integers(np.arange(3, dtype=np.uint8), "levels"))
    with pytest.raises(ValueError, match=r"^labels must be integers, got 1\.5, nan$"):
        PartialAssignment.from_labels([0, 1.5, 2, float("nan")])


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8])
def test_assignments_are_the_rows_as_tuples_of_python_ints(dtype):
    labels = np.array([[0, 1, 2], [2, 1, 0], [1, 1, 1], [0, 0, 0]], dtype=dtype)
    if dtype != np.uint8:
        labels[1:3, 1] = UNASSIGNED
    built = assignments(labels)
    assert built == [PartialAssignment.from_labels(row) for row in labels]
    assert all(type(label) is int for a in built for label in a.labels)
    assert assignments(labels[:0]) == []


@st.composite
def label_arrays(draw):
    """An (R, n) label array of int16 or int64, with m alternatives, R >= 1."""
    n, m, rows = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 20))
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    flat = draw(st.lists(st.integers(UNASSIGNED, m - 1), min_size=rows * n, max_size=rows * n))
    return np.array(flat, dtype=dtype).reshape(rows, n), m


@settings(max_examples=200, deadline=None)
@given(label_arrays(), st.data())
def test_assignments_equal_the_constructor_row_by_row(drawn, data):
    labels, m = drawn
    expected = [PartialAssignment(tuple(row)) for row in labels]
    for built in (assignments(labels), assignments(labels, m)):
        assert built == expected
        for a, e in zip(built, expected):
            assert a.labels == e.labels and a.assigned_mask == e.assigned_mask
            assert hash(a) == hash(e) and all(type(label) is int for label in a.labels)
    # with m, each row's bundle indices come from the batch, equal to the loop's
    for a, e in zip(assignments(labels, m), expected):
        got = a.bundle_indices(m)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == e.bundle_indices(m).tolist()
        assert a.bundle_indices(m + 1).tolist() == e.bundle_indices(m + 1).tolist()
    # a label below UNASSIGNED is refused as the constructor refuses the first such row
    r, j = data.draw(st.integers(0, len(labels) - 1)), data.draw(st.integers(0, labels.shape[1] - 1))
    bad = labels.copy()
    bad[r, j] = data.draw(st.integers(-300, -2))
    with pytest.raises(ValueError) as expected_error:
        [PartialAssignment(tuple(row)) for row in bad]
    for call in (lambda: assignments(bad), lambda: assignments(bad, m)):
        with pytest.raises(ValueError, match=f"^{expected_error.value}$"):
            call()
    # and with m, a label at or above m is refused as bundle_indices refuses it
    bad = labels.copy()
    bad[r, j] = m
    with pytest.raises(ValueError, match=f"^label {m} at element {j} exceeds m={m}$"):
        assignments(bad, m)


def test_assignments_start_indices_span_several_one_hot_blocks():
    # the one-hot pass runs in blocks of 512 rows; 1,100 rows take three
    rng = np.random.default_rng(11)
    labels = rng.integers(UNASSIGNED, 5, size=(1100, 9)).astype(np.int16)
    for a, row in zip(assignments(labels, 5), labels):
        assert a.bundle_indices(5).tolist() == PartialAssignment(tuple(row)).bundle_indices(5).tolist()


def test_released_assignments_refer_to_no_array_and_keep_their_start_indices():
    labels = np.random.default_rng(12).integers(UNASSIGNED, 4, size=(30, 6)).astype(np.int16)
    batch = assignments(labels, 4)
    assert all(any(isinstance(ref, np.ndarray) for ref in gc.get_referents(a)) for a in batch)
    release_bundle_indices(batch)
    for a, row in zip(batch, labels):
        assert not any(isinstance(ref, np.ndarray) for ref in gc.get_referents(a))
        assert a == PartialAssignment(tuple(row))
        assert a.bundle_indices(4).tolist() == PartialAssignment(tuple(row)).bundle_indices(4).tolist()


def test_from_labels_accepts_integral_labels_of_any_type():
    expected = (1, UNASSIGNED, 0)
    for labels in ([1, -1, 0], np.array([1, -1, 0], dtype=np.int8), np.array([1.0, -1.0, 0.0]), (np.int64(1), -1, 0)):
        assert PartialAssignment.from_labels(labels).labels == expected


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
        for mask in bundle_masks(child, m):
            assert union & mask == 0
            union |= mask
        assert union == child.assigned_mask
