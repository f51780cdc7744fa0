"""SPFX binary feature container.

Layout (little-endian): magic "SPFX", version u16, num_channels u32,
num_frames u32, frame_shift_ms float32, kind u8 (its index in
features.FEATURE_KINDS), 3 reserved zero bytes,
then num_frames * num_channels float32 payload, time-major.  A kind byte of
255 marks a statistics container whose two payload rows are the per-channel
mean and variance.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .features import FEATURE_KINDS, FeatureMatrix
from .stats import CorpusStats

MAGIC = b"SPFX"
VERSION = 1
HEADER = struct.Struct("<4sHIIfB3x")
STATS_KIND = 255


def _write(path, frame_shift_ms: float, kind_code: int, rows: np.ndarray) -> None:
    """Write one container: the header, then the 2-D `rows` rounded to float32, in one write.

    The rows are cast straight into the output buffer.  A value that is not
    finite there, such as a finite float64 that overflows float32, raises
    FormatError before the file is opened, so no file is written.
    """
    num_frames, num_channels = rows.shape
    blob = bytearray(HEADER.size + 4 * rows.size)
    HEADER.pack_into(blob, 0, MAGIC, VERSION, num_channels, num_frames, frame_shift_ms, kind_code)
    payload = np.frombuffer(blob, dtype="<f4", offset=HEADER.size).reshape(num_frames, num_channels)
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        np.copyto(payload, rows)
    if not np.isfinite(payload).all():
        row, column = np.argwhere(~np.isfinite(payload))[0]
        raise FormatError(
            f"{path}: value {rows[row, column]!r} at row {row}, column {column} is not finite as float32; nothing written"
        )
    Path(path).write_bytes(blob)


def _unpack(raw: bytes, path) -> tuple[int, int, float, int, np.ndarray]:
    if len(raw) < HEADER.size:
        raise FormatError(f"{path}: truncated header, got {len(raw)} bytes but need {HEADER.size}")
    magic, version, num_channels, num_frames, frame_shift_ms, kind_code = HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    expected = 4 * num_frames * num_channels
    actual = len(raw) - HEADER.size
    if actual != expected:
        raise FormatError(
            f"{path}: payload at byte offset {HEADER.size} has {actual} bytes, "
            f"expected 4*{num_frames}*{num_channels} = {expected}"
        )
    payload = np.frombuffer(raw, dtype="<f4", offset=HEADER.size).reshape(num_frames, num_channels)
    return num_channels, num_frames, frame_shift_ms, kind_code, payload


def write_spfx(features: FeatureMatrix, path) -> None:
    """Persist a feature matrix; the float64 data is rounded to float32.

    A value that overflows float32 raises FormatError and writes nothing.
    """
    _write(path, features.frame_shift_ms, FEATURE_KINDS.index(features.kind), features.data)


def read_spfx(path) -> FeatureMatrix:
    """Load a feature matrix; header/payload problems raise FormatError naming the byte offset.

    Features that FeatureMatrix refuses, such as a NaN or zero frames, raise FormatError naming the path.
    """
    raw = Path(path).read_bytes()
    num_channels, num_frames, frame_shift_ms, kind_code, payload = _unpack(raw, path)
    if kind_code >= len(FEATURE_KINDS):
        raise FormatError(f"{path}: unknown kind byte {kind_code} at byte offset 18")
    try:
        return FeatureMatrix(
            data=payload.astype(np.float64),
            frame_shift_ms=float(frame_shift_ms),
            kind=FEATURE_KINDS[kind_code],
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_stats_container(stats: CorpusStats, path) -> None:
    """Persist corpus stats as a kind-255 container: mean row then variance row.

    A value that is not finite as float32 raises FormatError and writes nothing.
    """
    _write(path, 0.0, STATS_KIND, np.stack([stats.mean, stats.variance]))


def read_stats_container(path) -> CorpusStats:
    """Load corpus stats.  The frame count is not persisted; it loads as 1.

    Stats that CorpusStats refuses, such as a NaN, raise FormatError naming the path.
    """
    raw = Path(path).read_bytes()
    num_channels, num_frames, _, kind_code, payload = _unpack(raw, path)
    if kind_code != STATS_KIND:
        raise FormatError(f"{path}: kind byte {kind_code} at byte offset 18 is not a stats container ({STATS_KIND})")
    if num_frames != 2:
        raise FormatError(f"{path}: stats container must have 2 rows, got {num_frames} (byte offset 10)")
    mean, variance = payload.astype(np.float64)
    try:
        return CorpusStats(mean=mean, variance=variance, count=1)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
