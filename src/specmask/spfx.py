"""SPFX binary feature container.

Layout (little-endian): magic "SPFX", version u16, num_channels u32,
num_frames u32, frame_shift_ms float32, kind u8 (its index in
features.FEATURE_KINDS), 3 reserved zero bytes,
then num_frames * num_channels float32 payload, time-major.  A kind byte of
255 marks a statistics container whose two payload rows are the per-channel
mean and variance.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError
from .features import FEATURE_KINDS, FeatureMatrix
from .stats import CorpusStats

MAGIC = b"SPFX"
VERSION = 1
HEADER = struct.Struct("<4sHIIfB3x")
STATS_KIND = 255


def _write(path, frame_shift_ms: float, kind_code: int, rows: np.ndarray) -> None:
    """Write one container: the header, then the 2-D `rows` as float32.

    Float32 rows are written from their own buffer; other rows are cast once.
    A value that is not finite as float32, such as a finite float64 that
    overflows it, raises FormatError before the file is opened, so no file
    is written.
    """
    num_frames, num_channels = rows.shape
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        payload = np.ascontiguousarray(rows, dtype="<f4")
    if not np.isfinite(payload).all():
        row, column = np.argwhere(~np.isfinite(payload))[0]
        raise FormatError(
            f"{path}: value {rows[row, column]!r} at row {row}, column {column} is not finite as float32; nothing written"
        )
    with open(path, "wb") as file:
        file.write(HEADER.pack(MAGIC, VERSION, num_channels, num_frames, frame_shift_ms, kind_code))
        file.write(payload)


def _read(path) -> tuple[float, int, np.ndarray]:
    """(frame shift, kind byte, payload) of one container; the payload is read into one float32 array."""
    with open(path, "rb") as file:
        head = file.read(HEADER.size)
        if len(head) < HEADER.size:
            raise FormatError(f"{path}: truncated header, got {len(head)} bytes but need {HEADER.size}")
        magic, version, num_channels, num_frames, frame_shift_ms, kind_code = HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
        expected = 4 * num_frames * num_channels
        actual = os.fstat(file.fileno()).st_size - HEADER.size
        if actual != expected:
            raise FormatError(
                f"{path}: payload at byte offset {HEADER.size} has {actual} bytes, "
                f"expected 4*{num_frames}*{num_channels} = {expected}"
            )
        payload = np.empty((num_frames, num_channels), dtype="<f4")
        if file.readinto(payload) != expected:
            raise FormatError(f"{path}: payload at byte offset {HEADER.size} ended before {expected} bytes")
    return frame_shift_ms, kind_code, payload


def write_spfx(features: FeatureMatrix, path) -> None:
    """Persist a feature matrix; float64 data and the frame shift are rounded to float32.

    A float32 matrix is written from its own buffer, with no copy.  A value
    that overflows float32, or a frame shift that is not finite and > 0 as
    float32 and so could not be read back, raises FormatError and writes
    nothing.
    """
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        shift = np.float32(features.frame_shift_ms)
    if not 0 < shift < np.inf:
        raise FormatError(
            f"{path}: frame_shift_ms {features.frame_shift_ms!r} is not finite and > 0 as float32; nothing written"
        )
    _write(path, features.frame_shift_ms, FEATURE_KINDS.index(features.kind), features.data)


def read_spfx(path) -> FeatureMatrix:
    """Load a feature matrix that holds the payload as one float32 array, read straight from the file.

    Header/payload problems raise FormatError naming the byte offset.
    Features that FeatureMatrix refuses, such as a NaN or zero frames, raise FormatError naming the path.
    """
    frame_shift_ms, kind_code, payload = _read(path)
    if kind_code >= len(FEATURE_KINDS):
        raise FormatError(f"{path}: unknown kind byte {kind_code} at byte offset 18")
    try:
        return FeatureMatrix(
            data=payload,
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
    _, kind_code, payload = _read(path)
    if kind_code != STATS_KIND:
        raise FormatError(f"{path}: kind byte {kind_code} at byte offset 18 is not a stats container ({STATS_KIND})")
    if len(payload) != 2:
        raise FormatError(f"{path}: stats container must have 2 rows, got {len(payload)} (byte offset 10)")
    mean, variance = payload
    try:
        return CorpusStats(mean=mean, variance=variance, count=1)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
