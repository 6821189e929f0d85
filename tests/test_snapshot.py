import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.cascade import init_multi
from polycascade.constellation import synthesize_u
from polycascade.kernel import KernelParams
from polycascade.package import Package
from polycascade.snapshot import MAGIC, SnapshotFormatError, load_snapshot, save_snapshot


def test_roundtrip_multi_output(tmp_path):
    mc = init_multi([6, 5, 3], seed=4, alpha=7.5)
    path = tmp_path / "model.phc1"
    spec = {"clamp": False, "col_min": [0.0], "col_max": [1.0]}
    save_snapshot(path, mc, preprocessing=spec)
    loaded, prep = load_snapshot(path)
    assert prep == spec
    assert loaded.d == 3
    assert loaded.widths == [6, 5, 1]
    assert loaded.alpha == 7.5
    for ca, cb in zip(mc.replicas, loaded.replicas):
        for pa, pb in zip(ca.packages, cb.packages):
            assert np.array_equal(pa.values, pb.values)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_save_load_save_is_byte_identical(tmp_path, dtype):
    kernel = KernelParams(b=4.0, c=300.0)
    mc = init_multi([5, 4, 4, 3], seed=8, mode="identity-fragments", alpha=2.5, kernel=kernel,
                    sigma2=0.35, dtype=dtype)
    first, second = tmp_path / "a.phc1", tmp_path / "b.phc1"
    save_snapshot(first, mc)
    loaded, _ = load_snapshot(first)
    assert (loaded.d, loaded.widths, loaded.alpha, loaded.kernel, loaded.sigma2, loaded.dtype) \
        == (3, [5, 4, 4, 1], 2.5, kernel, 0.35, np.dtype(dtype))
    for c in loaded.replicas:
        assert [p.constellation.sigma2 for p in c.packages] == [0.35, 0.35, 0.35]
    save_snapshot(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    x = np.random.default_rng(8).uniform(-1, 1, (9, 5)).astype(dtype)
    assert np.array_equal(loaded.scores(x), mc.scores(x))


def test_coefficients_rederived_on_load(tmp_path):
    path = tmp_path / "single.phc1"
    save_snapshot(path, init_multi([5, 4, 1], seed=1, alpha=2.0))
    loaded, prep = load_snapshot(path)
    assert prep is None
    pkg = loaded.replicas[0].packages[0]
    expected = synthesize_u(pkg.octa_coeffs, pkg.n_in) @ pkg.values
    assert np.abs(pkg.coeffs - expected).max() / np.abs(expected).max() <= 1e-8


def test_loaded_model_predicts_identically(tmp_path):
    mc = init_multi([4, 3, 1], seed=9, alpha=1.0)
    x = np.random.default_rng(0).uniform(-1, 1, (7, 4))
    save_snapshot(tmp_path / "m.phc1", mc)
    loaded, _ = load_snapshot(tmp_path / "m.phc1")
    assert np.array_equal(mc.scores(x), loaded.scores(x))


def test_float32_snapshot(tmp_path):
    mc = init_multi([4, 1], seed=2, alpha=1.0, dtype="float32")
    save_snapshot(tmp_path / "m32.phc1", mc)
    loaded, _ = load_snapshot(tmp_path / "m32.phc1")
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.replicas[0].packages[0].values,
                          mc.replicas[0].packages[0].values)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.phc1"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.phc1"
    save_snapshot(p, init_multi([4, 1], seed=0, alpha=1.0))
    data = p.read_bytes()
    assert data.startswith(MAGIC)
    p.write_bytes(data[:-16])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "t.phc1"
    save_snapshot(p, init_multi([4, 1], seed=0, alpha=1.0))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        load_snapshot(p)


def test_load_sets_each_package_values_once(tmp_path, monkeypatch):
    mc = init_multi([6, 5, 4, 3], seed=3, alpha=2.0)
    save_snapshot(tmp_path / "m.phc1", mc)
    calls = []
    set_values = Package.set_values

    def counting_set_values(self, values):
        calls.append(self)
        set_values(self, values)

    monkeypatch.setattr(Package, "set_values", counting_set_values)
    loaded, _ = load_snapshot(tmp_path / "m.phc1")
    assert len(calls) == 3 * 3  # d * q
    for ca, cb in zip(mc.replicas, loaded.replicas):
        for pa, pb in zip(ca.packages, cb.packages):
            assert np.array_equal(pa.coeffs, pb.coeffs)


def test_invalid_header_widths_rejected(tmp_path):
    p = tmp_path / "w.phc1"
    save_snapshot(p, init_multi([4, 3, 1], seed=0, alpha=1.0))
    data = bytearray(p.read_bytes())
    last_width = 4 + 8 + 8 + 2 * 8  # magic, d, q, then widths[0..1]
    data[last_width:last_width + 8] = struct.pack("<Q", 2)
    p.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError, match="invalid widths"):
        load_snapshot(p)


@pytest.mark.parametrize("shape,message", [
    ((4, 11), r"replica 1 package 0: values shape \(4, 11\) != \(11, 4\)"),
    ((2 ** 63 + 11, 0), "replica 1 package 0: stored shape"),
], ids=["transposed", "empty-huge"])
def test_stored_shape_mismatch_names_replica(tmp_path, shape, message):
    p = tmp_path / "s.phc1"
    save_snapshot(p, init_multi([5, 4, 2], seed=0, alpha=1.0))
    data = bytearray(p.read_bytes())
    # magic, d, q, three widths, four hyperparameters, dtype code, spec length; replica 0
    offset = 4 + 2 * 8 + 3 * 8 + 4 * 8 + 2 * 8 + (16 + 11 * 4 * 8) + (16 + 9 * 8)
    data[offset:offset + 16] = struct.pack("<2Q", *shape)
    if shape[1] == 0:
        del data[offset + 16:offset + 16 + 11 * 4 * 8]
    p.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError, match=message):
        load_snapshot(p)


def test_mistyped_preprocessing_spec_rejected(tmp_path):
    path = tmp_path / "m.phc1"
    save_snapshot(path, init_multi([3, 2, 1], seed=0, alpha=1.0),
                  preprocessing={"col_min": 5})
    with pytest.raises(SnapshotFormatError, match="col_min"):
        load_snapshot(path)


def _valid_snapshot_bytes(dtype: str) -> bytes:
    mc = init_multi([3, 2, 2], seed=5, alpha=2.0, dtype=dtype)
    prep = {"log_columns": [], "log1p_columns": [], "clamp": False,
            "col_min": [0.0, -1.0, 2.0], "col_max": [1.0, 1.0, 3.0]}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.phc1"
        save_snapshot(path, mc, preprocessing=prep)
        return path.read_bytes()


VALID = {dtype: _valid_snapshot_bytes(dtype) for dtype in ("float64", "float32")}


def _load_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.phc1"
        path.write_bytes(data)
        return load_snapshot(path)


def crafted_headers() -> dict[str, bytes]:
    """Headers under ~100 bytes whose lengths would each ask for terabytes."""
    huge = 2 ** 40
    hyper = struct.pack("<4d", 1.0, 5.0, 400.0, 0.0)
    return {
        "package count": MAGIC + struct.pack("<2Q", 1, huge),
        "preprocessing length": (MAGIC + struct.pack("<4Q", 1, 1, 2, 1) + hyper
                                 + struct.pack("<2Q", 0, huge)),
        "width": (MAGIC + struct.pack("<4Q", 1, 1, huge, 1) + hyper
                  + struct.pack("<4Q", 0, 0, 2 * huge + 1, 1)),
    }


@pytest.mark.parametrize("name", sorted(crafted_headers()))
def test_crafted_header_lengths_rejected_without_allocation(name):
    data = crafted_headers()[name]
    assert len(data) <= 100
    with pytest.raises(SnapshotFormatError, match="truncated"):
        _load_bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dtype=st.sampled_from(sorted(VALID)), frac=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_snapshot_is_format_error(dtype, frac):
    data = VALID[dtype]
    with pytest.raises(SnapshotFormatError):
        _load_bytes(data[:int(frac * len(data))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dtype=st.sampled_from(sorted(VALID)), bits=st.lists(st.integers(0, 10 ** 6), min_size=1,
                                                           max_size=3))
def test_bit_flipped_snapshot_loads_finite_or_is_format_error(dtype, bits):
    data = bytearray(VALID[dtype])
    for bit in bits:
        bit %= 8 * len(data)
        data[bit // 8] ^= 1 << (bit % 8)
    try:
        model, _ = _load_bytes(bytes(data))
    except SnapshotFormatError:
        return
    for cascade in model.replicas:
        for pkg in cascade.packages:
            assert np.isfinite(pkg.values).all() and np.isfinite(pkg.coeffs).all()
