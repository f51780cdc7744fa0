"""SPFX container round-trips and format errors."""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest

from specmask.errors import FormatError
from specmask.features import FeatureMatrix
from specmask.spfx import (
    read_spfx,
    read_stats_container,
    write_spfx,
    write_stats_container,
)
from specmask.stats import CorpusStats


def test_minimal_file_layout(tmp_path):
    path = tmp_path / "one.spfx"
    write_spfx(FeatureMatrix(data=np.zeros((1, 1)), frame_shift_ms=10.0, kind="log_mel"), path)
    raw = path.read_bytes()
    assert len(raw) == 22 + 4
    # unpack the header independently, field by field
    assert raw[0:4] == b"SPFX"
    assert struct.unpack_from("<H", raw, 4)[0] == 1
    assert struct.unpack_from("<I", raw, 6)[0] == 1  # channels
    assert struct.unpack_from("<I", raw, 10)[0] == 1  # frames
    assert struct.unpack_from("<f", raw, 14)[0] == 10.0
    assert raw[18] == 0  # log_mel
    assert raw[19:22] == b"\x00\x00\x00"
    assert raw[22:26] == b"\x00\x00\x00\x00"


def test_round_trip_random_matrix(tmp_path):
    rng = np.random.default_rng(20)
    data = rng.normal(size=(50, 40))
    original = FeatureMatrix(data=data, frame_shift_ms=10.0, kind="log_mel")
    path = tmp_path / "m.spfx"
    write_spfx(original, path)
    loaded = read_spfx(path)
    assert loaded.kind == "log_mel"
    assert loaded.frame_shift_ms == 10.0
    assert loaded.data.shape == (50, 40)
    # lossless at float32 precision
    assert np.array_equal(loaded.data, data.astype(np.float32).astype(np.float64))
    # a second write is byte-identical
    path2 = tmp_path / "m2.spfx"
    write_spfx(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("kind", ["log_mel", "mfcc", "standardized_log_mel", "standardized_mfcc"])
def test_all_kinds_round_trip(tmp_path, kind):
    m = FeatureMatrix(data=np.ones((3, 2)), frame_shift_ms=25.0, kind=kind)
    path = tmp_path / "k.spfx"
    write_spfx(m, path)
    assert read_spfx(path).kind == kind


@pytest.mark.parametrize(
    "kind, code", [("log_mel", 0), ("mfcc", 1), ("standardized_log_mel", 2), ("standardized_mfcc", 3)]
)
def test_kind_byte_of_each_kind(tmp_path, kind, code):
    path = tmp_path / "k.spfx"
    write_spfx(FeatureMatrix(data=np.ones((2, 3)), frame_shift_ms=10.0, kind=kind), path)
    assert path.read_bytes()[18] == code


def test_payload_is_time_major_float32_le(tmp_path):
    data = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "tm.spfx"
    write_spfx(FeatureMatrix(data=data, frame_shift_ms=10.0, kind="mfcc"), path)
    payload = path.read_bytes()[22:]
    assert payload == struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.spfx"
    path.write_bytes(b"NOPE" + bytes(22))
    with pytest.raises(FormatError, match="offset 0"):
        read_spfx(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v.spfx"
    path.write_bytes(b"SPFX" + struct.pack("<H", 2) + bytes(20))
    with pytest.raises(FormatError, match="offset 4"):
        read_spfx(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "t.spfx"
    path.write_bytes(b"SPFX\x01")
    with pytest.raises(FormatError, match="truncated header"):
        read_spfx(path)


def test_truncated_payload_cites_expected_and_actual(tmp_path):
    path = tmp_path / "p.spfx"
    good = tmp_path / "good.spfx"
    write_spfx(FeatureMatrix(data=np.zeros((2, 3)), frame_shift_ms=10.0, kind="log_mel"), good)
    path.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(FormatError, match="20 bytes, expected 4\\*2\\*3 = 24"):
        read_spfx(path)


def test_unknown_kind_byte(tmp_path):
    good = np.zeros((1, 1))
    path = tmp_path / "k.spfx"
    write_spfx(FeatureMatrix(data=good, frame_shift_ms=10.0, kind="log_mel"), path)
    raw = bytearray(path.read_bytes())
    for code in (4, 9, 254):  # 4 is the first byte past the last kind
        raw[18] = code
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unknown kind byte {code} at byte offset 18$"):
            read_spfx(path)


def test_stats_container_round_trip(tmp_path):
    stats = CorpusStats(mean=np.array([1.0, -2.0, 0.5]), variance=np.array([4.0, 0.25, 1.0]), count=777)
    path = tmp_path / "s.spfx-stats"
    write_stats_container(stats, path)
    loaded = read_stats_container(path)
    assert np.array_equal(loaded.mean, stats.mean)  # exactly representable values
    assert np.array_equal(loaded.variance, stats.variance)
    assert loaded.count == 1  # frame count is not persisted


def test_stats_container_kind_byte(tmp_path):
    stats = CorpusStats(mean=np.zeros(2), variance=np.ones(2), count=5)
    path = tmp_path / "s.spfx-stats"
    write_stats_container(stats, path)
    assert path.read_bytes()[18] == 255


def test_feature_reader_rejects_stats_container(tmp_path):
    stats = CorpusStats(mean=np.zeros(2), variance=np.ones(2), count=5)
    path = tmp_path / "s.spfx-stats"
    write_stats_container(stats, path)
    with pytest.raises(FormatError, match="offset 18"):
        read_spfx(path)


def test_stats_reader_rejects_feature_file(tmp_path):
    path = tmp_path / "f.spfx"
    write_spfx(FeatureMatrix(data=np.zeros((2, 2)), frame_shift_ms=10.0, kind="log_mel"), path)
    with pytest.raises(FormatError, match="not a stats container"):
        read_stats_container(path)


# ------------------------------------------------- the float32 boundary


@pytest.mark.parametrize("warning_policy", ["default", "error"])
def test_write_refuses_a_value_that_overflows_float32(tmp_path, warning_policy):
    data = np.ones((3, 4))
    data[2, 1] = 9.5e42  # finite as float64, inf as float32
    path = tmp_path / "big.spfx"
    with warnings.catch_warnings():
        warnings.simplefilter(warning_policy)
        with pytest.raises(FormatError, match="row 2, column 1 is not finite as float32"):
            write_spfx(FeatureMatrix(data=data, frame_shift_ms=10.0, kind="mfcc"), path)
    assert not path.exists()


def test_float32_max_is_written_and_read_back(tmp_path):
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "top.spfx"
    write_spfx(FeatureMatrix(data=np.array([[top, -top]]), frame_shift_ms=10.0, kind="mfcc"), path)
    assert read_spfx(path).data.tolist() == [[top, -top]]


@pytest.mark.parametrize("mean", [1e39, np.nan, np.inf])
def test_stats_container_write_refuses_nonfinite_float32(tmp_path, mean):
    stats = CorpusStats(mean=np.zeros(2), variance=np.ones(2), count=5)
    # CorpusStats refuses NaN and inf when built, but its arrays stay mutable,
    # so the write must still check what it is given.
    stats.mean[1] = mean
    path = tmp_path / "s.spfx-stats"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="row 0, column 1 is not finite as float32"):
            write_stats_container(stats, path)
    assert not path.exists()
