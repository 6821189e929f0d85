import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycascade
from polycascade.config import RunConfig, load_datasets
from polycascade.data import (BoundedReader, DataFormatError, Dataset, TransformSpec, _number,
                              batches, fit_apply_transforms, load_delimited, load_idx)


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    payload = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lbl_path.write_bytes(struct.pack(">II", label_magic,
                                     n if label_count is None else label_count)
                         + labels.tobytes())
    return img_path, lbl_path


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (10, 4, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, 10, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lbl)
    assert ds.features.shape == (10, 20)
    assert np.array_equal(ds.features, images.reshape(10, 20).astype(float))
    assert np.array_equal(ds.labels, labels)


def test_load_idx_bad_magic(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
                              image_magic=0x804)
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(img, lbl)


def test_load_idx_truncated_names_byte_count(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2],
                              truncate_images=5)
    with pytest.raises(DataFormatError, match="12 bytes"):
        load_idx(img, lbl)


def test_bounded_reader_refuses_a_read_past_the_end_naming_the_file(tmp_path):
    class CustomError(Exception):
        pass

    path = tmp_path / "six.bin"
    path.write_bytes(b"abcdef")
    with open(path, "rb") as f:
        f.read(1)
        reader = BoundedReader(f, path)
        assert reader.left == 5
        assert reader.exact(2, "head") == b"bc" and reader.left == 3
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}: truncated while reading tail: wanted 4 bytes, 3 left")):
            reader.exact(4, "tail")
        assert reader.exact(3, "tail") == b"def" and reader.left == 0
    with open(path, "rb") as f:
        with pytest.raises(CustomError, match="wanted 7 bytes, 6 left"):
            BoundedReader(f, "six", CustomError).exact(7, "all")


def test_load_idx_count_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2],
                              label_count=4)
    with pytest.raises(DataFormatError, match="4 labels"):
        load_idx(img, lbl)


def test_load_delimited_layout(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1,0.5,2.5\n0,1.5,3.5\n")
    ds = load_delimited(p, label_column=0)
    assert ds.features.shape == (2, 2)
    assert np.array_equal(ds.labels, [1.0, 0.0])
    assert np.array_equal(ds.features, [[0.5, 2.5], [1.5, 3.5]])


def test_load_delimited_last_column_label(tmp_path):
    p = tmp_path / "data.tsv"
    p.write_text("0.5\t2.5\t1\n1.5\t3.5\t0\n")
    ds = load_delimited(p, label_column=-1, delimiter="\t")
    assert np.array_equal(ds.labels, [1.0, 0.0])
    assert np.array_equal(ds.features, [[0.5, 2.5], [1.5, 3.5]])


def test_load_delimited_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_delimited(p)


def test_load_delimited_non_numeric_coordinates(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        load_delimited(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_delimited_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"1,2,3\n\n0,5,{cell}\n")  # the blank line still counts as a file row
    with pytest.raises(DataFormatError, match="non-finite cell at row 3, column 3"):
        load_delimited(p)
    p.write_text(f"{cell},2,3\n")  # a label cell too
    with pytest.raises(DataFormatError, match="row 1, column 1"):
        load_delimited(p)


def test_load_delimited_names_the_row_with_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"1,2,3\n4,5,6\n7,8\xe9,9\n")
    with pytest.raises(DataFormatError, match="row 3 is not UTF-8 text"):
        load_delimited(p)


def test_load_delimited_max_rows_counts_data_rows(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("1,0.5\n\n\n0,1.5\n1,2.5\n0,3.5\n")
    ds = load_delimited(p, max_rows=3)
    assert np.array_equal(ds.features[:, 0], [0.5, 1.5, 2.5])
    assert np.array_equal(ds.labels, [1.0, 0.0, 1.0])


@pytest.mark.parametrize("max_rows", [0, -1])
def test_load_delimited_rejects_max_rows_below_one_before_opening_the_file(tmp_path, max_rows):
    # as the INI loader does: a missing file is not the error, since none is opened
    with pytest.raises(DataFormatError, match=f"max_rows must be >= 1, got {max_rows}"):
        load_delimited(tmp_path / "missing.csv", max_rows=max_rows)


def test_load_delimited_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_delimited(p)


def test_load_delimited_matches_a_per_cell_float_reference(tmp_path):
    lines = ["0.5 \t-2e3\t 1", "", "   \t  ", " 1.25\t+4.\t0 ", "\t", "-0.0\t.5E-2\t1",
             "7\t8\t0"]
    p = tmp_path / "data.tsv"
    p.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    rows = [[float(c) for c in line.split("\t")] for line in lines if line.strip()][:3]
    ds = load_delimited(p, label_column=-1, delimiter="\t", max_rows=3)
    assert np.array_equal(ds.features, np.array(rows)[:, :2])
    assert np.array_equal(ds.labels, np.array(rows)[:, 2])


@pytest.mark.parametrize("cell", ["1_000", "\uff11"], ids=["underscore", "full-width-digit"])
def test_load_delimited_names_a_cell_that_only_pythons_float_reads(tmp_path, cell):
    assert float(cell) in (1000.0, 1.0)
    p = tmp_path / "bad.csv"
    p.write_text(f"1,2,3\n\n0,{cell},6\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"non-numeric cell at row 3, column 2: '{cell}'"):
        load_delimited(p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(["1", "0", "+", "-", ".", "e", "E", "_", " ", "\t", "\u3000",
                                  "\uff11", "\u0661", "inf", "Infinity", "nan", "x"]),
                max_size=6).map("".join))
def test_rescan_reads_a_cell_as_numpys_reader_does(cell):
    # the rescan names the cells the reader refused, so it must refuse exactly those
    try:
        expected = np.loadtxt([f"0,{cell},0"], delimiter=",", comments=None, ndmin=2)[0, 1]
    except ValueError:
        with pytest.raises(ValueError):
            _number(cell)
    else:
        assert _number(cell) == expected or (np.isnan(expected) and np.isnan(_number(cell)))


@pytest.mark.parametrize("delimiter", ["::", "\n", "\r"])
def test_load_delimited_rejects_a_delimiter_that_is_not_one_character_before_opening_the_file(
        tmp_path, delimiter):
    with pytest.raises(DataFormatError, match="delimiter must be one character"):
        load_delimited(tmp_path / "missing.csv", delimiter=delimiter)


@pytest.fixture(scope="module")
def wide_table(tmp_path_factory):
    """A 20,000 x 29 CSV: a 0/1 label, then 28 features."""
    rng = np.random.default_rng(31)
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    np.savetxt(path, np.column_stack([rng.integers(0, 2, 20000), rng.normal(size=(20000, 28))]),
               delimiter=",")
    return path


def traced_peak(call):
    """The result of ``call()`` and the most bytes it held at once beyond what it started with."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_load_delimited_peaks_at_about_two_copies_of_its_table(wide_table):
    ds, peak = traced_peak(lambda: load_delimited(wide_table))
    table_bytes = ds.features.nbytes + ds.labels.nbytes
    assert ds.features.shape == (20000, 28)
    assert peak <= 2.1 * table_bytes, peak / table_bytes


def test_fit_apply_transforms_peaks_at_about_one_copy_of_the_features():
    features = np.random.default_rng(32).normal(size=(20000, 28))
    ds = Dataset(features, np.zeros(20000), n_train=16000)
    (_, fitted), peak = traced_peak(lambda: fit_apply_transforms(ds, TransformSpec()))
    assert peak <= 1.2 * features.nbytes, peak / features.nbytes
    _, peak = traced_peak(lambda: fit_apply_transforms(ds, fitted))
    assert peak <= 1.2 * features.nbytes, peak / features.nbytes


def test_load_datasets_normalises_a_delimited_table_without_stacking_its_splits(wide_table):
    cfg = RunConfig(format="delimited", path=wide_table, widths=[28, 4, 1])
    (train, test, _), peak = traced_peak(lambda: load_datasets(cfg))
    feature_bytes = train.features.nbytes + test.features.nbytes
    assert (train.n_rows, test.n_rows) == (16000, 4000)
    assert peak <= 2.3 * feature_bytes, peak / feature_bytes


def test_dataset_split_views():
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6), n_train=4)
    assert ds.train.n_rows == 4
    assert ds.test.n_rows == 2
    assert np.array_equal(ds.test.labels, [4, 5])


def test_minmax_endpoints():
    features = np.array([[0.0], [100.0], [255.0]])
    ds = Dataset(features, np.zeros(3))
    out, spec = fit_apply_transforms(ds, TransformSpec())
    assert out.features[0, 0] == -1.0
    assert out.features[2, 0] == 1.0
    assert spec.fitted


def test_constant_column_maps_to_zero():
    features = np.array([[5.0, 1.0], [5.0, 2.0]])
    out, _ = fit_apply_transforms(Dataset(features, np.zeros(2)), TransformSpec())
    assert np.all(out.features[:, 0] == 0.0)


def test_log_and_log1p_columns():
    features = np.array([[1.0, 0.0], [np.e, 1.0]])
    spec = TransformSpec(log_columns=(0,), log1p_columns=(1,))
    out, fitted = fit_apply_transforms(Dataset(features, np.zeros(2)), spec)
    # after log: col0 = [0, 1]; after log1p: col1 = [0, ln 2]; both min-max to [-1, 1]
    assert np.allclose(out.features, [[-1.0, -1.0], [1.0, 1.0]])
    assert fitted.col_min[0] == 0.0


def test_log_rejects_non_positive():
    spec = TransformSpec(log_columns=(0,))
    with pytest.raises(DataFormatError, match="log column 0"):
        fit_apply_transforms(Dataset(np.array([[0.0], [1.0]]), np.zeros(2)), spec)
    spec1p = TransformSpec(log1p_columns=(0,))
    with pytest.raises(DataFormatError, match="log1p column 0"):
        fit_apply_transforms(Dataset(np.array([[-1.0], [1.0]]), np.zeros(2)), spec1p)


def test_log_errors_name_the_one_based_data_row():
    # named as the normalisation error names rows: 1-based, counting data rows
    features = np.array([[1.0, 0.0], [-1.0, -2.0]])
    with pytest.raises(DataFormatError, match=re.escape(
            "log column 0 has non-positive value -1.0 at data row 2 (blank lines not counted)")):
        fit_apply_transforms(Dataset(features, np.zeros(2)), TransformSpec(log_columns=(0,)))
    with pytest.raises(DataFormatError, match=re.escape(
            "log1p column 1 has value -2.0 <= -1 at data row 2 (blank lines not counted)")):
        fit_apply_transforms(Dataset(features, np.zeros(2)), TransformSpec(log1p_columns=(1,)))


@pytest.mark.parametrize("logs,log1ps", [((0, 0), ()), ((), (1, 1)), ((0, 1), (1,))])
def test_column_named_twice_rejected(logs, log1ps):
    # a column takes at most one transform, once
    message = f"log_columns {list(logs)} and log1p_columns {list(log1ps)} name a column twice"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        TransformSpec(log_columns=logs, log1p_columns=log1ps)
    with pytest.raises(DataFormatError, match=re.escape(message)):
        TransformSpec.from_dict({"log_columns": list(logs), "log1p_columns": list(log1ps)})


def test_from_dict_rejects_crossed_bounds():
    # crossed bounds would flip the column's normalisation without any error
    with pytest.raises(DataFormatError, match=re.escape("col_min exceeds col_max at columns [0]")):
        TransformSpec.from_dict({"col_min": [1.0, 0.0], "col_max": [0.0, 0.0]})


def test_transform_columns_checked_before_any_log():
    features = np.array([[1.0, 2.0], [3.0, 4.0]])
    for spec in (TransformSpec(log_columns=(2,)), TransformSpec(log1p_columns=(0, -1))):
        with pytest.raises(DataFormatError, match="out of range for 2 features"):
            fit_apply_transforms(Dataset(features, np.zeros(2)), spec)


def test_value_normalising_beyond_float_range_names_row_and_feature():
    train = Dataset(np.array([[0.0, -1e308], [1.0, 1e308]]), np.zeros(2))
    with pytest.raises(DataFormatError, match=r"feature 1 of data row 2 \(.*\) normalises to nan"):
        fit_apply_transforms(train, TransformSpec())
    spec = TransformSpec(col_min=(0.0, 0.0), col_max=(1.0, 1.0))
    test = Dataset(np.array([[0.5, 0.5], [1e308, 0.5]]), np.zeros(2))
    with pytest.raises(DataFormatError, match=r"feature 0 of data row 2 \(.*\) normalises to inf"):
        fit_apply_transforms(test, spec)
    # clamping keeps an out-of-range test value finite
    out, _ = fit_apply_transforms(test, replace(spec, clamp=True))
    assert out.features[1, 0] == 1.0


def test_bounds_fitted_on_training_split_only():
    # poisoning the test rows must not change the fitted bounds
    rng = np.random.default_rng(3)
    train_rows = rng.uniform(0, 1, (50, 3))
    clean = Dataset(np.vstack([train_rows, rng.uniform(0, 1, (20, 3))]),
                    np.zeros(70), n_train=50)
    poisoned = Dataset(np.vstack([train_rows, 1e6 * np.ones((20, 3))]),
                       np.zeros(70), n_train=50)
    _, spec_clean = fit_apply_transforms(clean, TransformSpec())
    out_poisoned, spec_poisoned = fit_apply_transforms(poisoned, TransformSpec())
    assert spec_clean.col_min == spec_poisoned.col_min
    assert spec_clean.col_max == spec_poisoned.col_max
    # training rows stay inside [-1, 1]; poisoned test rows may exceed it
    assert np.abs(out_poisoned.features[:50]).max() <= 1.0 + 1e-9
    assert out_poisoned.features[50:].max() > 1.0


def test_clamp_flag():
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.zeros(3), n_train=2)
    out, _ = fit_apply_transforms(ds, TransformSpec(clamp=True))
    assert out.features.max() <= 1.0


def test_fitted_spec_reapplies_without_refit():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.uniform(-3, 7, (30, 2)), np.zeros(30))
    out1, fitted = fit_apply_transforms(ds, TransformSpec())
    other = Dataset(rng.uniform(-3, 7, (10, 2)), np.zeros(10))
    out2, fitted2 = fit_apply_transforms(other, fitted)
    assert fitted2 == fitted
    lo = np.asarray(fitted.col_min)
    hi = np.asarray(fitted.col_max)
    assert np.allclose(out2.features, 2 * (other.features - lo) / (hi - lo) - 1)


def test_normalization_roundtrip():
    rng = np.random.default_rng(2)
    features = rng.uniform(-5, 9, (40, 4))
    features[:, 2] = 3.0  # zero-range column
    ds = Dataset(features, np.zeros(40))
    out, spec = fit_apply_transforms(ds, TransformSpec())
    lo, hi = features.min(axis=0), features.max(axis=0)
    assert spec.col_min == tuple(lo) and spec.col_max == tuple(hi)
    keep = [0, 1, 3]
    expected = 2.0 * (features[:, keep] - lo[keep]) / (hi[keep] - lo[keep]) - 1.0
    assert np.array_equal(out.features[:, keep], expected)
    assert np.all(out.features[:, 2] == 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_normalisation_keeps_the_bits_and_dtype_of_the_formula(dtype):
    features = np.random.default_rng(5).uniform(0.5, 9, (40, 3)).astype(dtype)
    ds = Dataset(features, np.zeros(40), n_train=30)
    for spec in (TransformSpec(log_columns=(1,)), TransformSpec(log_columns=(1,), col_min=(
            0.0, -1.0, 0.0), col_max=(9.0, 3.0, 9.0))):
        logged = features.copy()
        logged[:, 1] = np.log(features[:, 1])
        out, fitted = fit_apply_transforms(ds, spec)
        lo, hi = (np.asarray(fitted.col_min), np.asarray(fitted.col_max)) if spec.fitted else (
            logged[:30].min(axis=0), logged[:30].max(axis=0))
        expected = 2.0 * (logged - lo) / (hi - lo) - 1.0
        assert out.features.dtype == expected.dtype == (np.float64 if spec.fitted else dtype)
        assert np.array_equal(out.features, expected)


def test_transform_spec_json_roundtrip():
    spec = TransformSpec(log_columns=(0, 5), log1p_columns=(3,), clamp=True,
                         col_min=(0.0, 1.0), col_max=(2.0, 3.0))
    assert TransformSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("bad", [
    {"log_columns": [1.5]}, {"log1p_columns": 3}, {"log_columns": [True]},
    {"clamp": "yes"}, {"col_min": 5}, {"col_min": [0.0], "col_max": None},
    {"col_min": [0.0, 1.0], "col_max": [1.0]}, {"col_min": [0.0], "col_max": ["1"]},
    {"col_min": [float("nan")], "col_max": [1.0]}, {"col_min": [0.0], "col_max": [10 ** 400]},
])
def test_transform_spec_from_dict_rejects_wrong_types(bad):
    with pytest.raises(DataFormatError, match="preprocessing"):
        TransformSpec.from_dict(bad)


def test_empty_delimiter_is_data_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(DataFormatError, match="delimiter"):
        load_delimited(path, delimiter="")


def test_batches_count_and_union():
    ds = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10))
    got = list(batches(ds, 3, seed=5, shuffle=True))
    assert [b.features.shape[0] for b in got] == [3, 3, 3, 1]
    all_idx = np.concatenate([b.indices for b in got])
    assert np.array_equal(np.sort(all_idx), np.arange(10))
    for b in got:
        assert np.array_equal(b.features, ds.features[b.indices])
        assert np.array_equal(b.labels, ds.labels[b.indices])


def test_batches_file_order_without_shuffle():
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6))
    got = list(batches(ds, 4, shuffle=False))
    assert np.array_equal(got[0].indices, [0, 1, 2, 3])
    assert np.array_equal(got[1].indices, [4, 5])


def test_batches_seed_determinism():
    ds = Dataset(np.arange(40.0).reshape(20, 2), np.arange(20))
    a = [b.indices for b in batches(ds, 7, seed=9)]
    b = [b.indices for b in batches(ds, 7, seed=9)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_batches_oversized_warns_single_batch():
    ds = Dataset(np.ones((3, 2)), np.zeros(3))
    with pytest.warns(UserWarning):
        got = list(batches(ds, 10))
    assert len(got) == 1 and got[0].features.shape[0] == 3


def test_batches_at_mnist_scale():
    ds = Dataset(np.zeros((60000, 1)), np.zeros(60000))
    assert sum(1 for _ in batches(ds, 2000, shuffle=False)) == 30


# Run in a child process whose address space is capped at 2 GB, so a load that
# trusted the header would fail with MemoryError or OverflowError, not pass.
_CAPPED_LOAD = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from polycascade.data import DataFormatError, load_idx
try:
    load_idx(sys.argv[1], sys.argv[2])
except DataFormatError as exc:
    print("DataFormatError:", exc)
"""


@pytest.mark.parametrize("count, rows, cols", [(60000, 28, 56000), (2**32 - 1,) * 3])
def test_load_idx_refuses_header_larger_than_file_under_memory_cap(tmp_path, count, rows, cols):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
    img.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(12))
    src = Path(polycascade.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _CAPPED_LOAD, str(img), str(lbl)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("DataFormatError:")
    assert f"wanted {count * rows * cols} bytes, 12 left" in done.stdout
