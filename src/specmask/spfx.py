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
from .features import FEATURE_KINDS, ROW_BLOCK, FeatureMatrix, FeatureRows, check_features
from .stats import CorpusStats

MAGIC = b"SPFX"
VERSION = 1
HEADER = struct.Struct("<4sHIIfB3x")
STATS_KIND = 255


def _write(path, frame_shift_ms: float, kind_code: int, shape: tuple[int, int], blocks) -> None:
    """Write one container: the header for `shape`, then each 2-D block of `blocks` as float32 rows as it comes.

    The first block is made before the file is opened.  A value that is not
    finite as float32 raises FormatError naming its row, and so do blocks that
    are not `num_channels` wide or do not hold `num_frames` rows; on any error
    the file is removed before the error propagates.
    """
    num_frames, num_channels = shape
    blocks = iter(blocks)
    rows = next(blocks, None)
    file = open(path, "wb")
    try:
        with file:
            file.write(HEADER.pack(MAGIC, VERSION, num_channels, num_frames, frame_shift_ms, kind_code))
            written = 0
            while rows is not None:
                with np.errstate(over="ignore"):  # an overflow is reported by the check below
                    payload = np.ascontiguousarray(rows, dtype="<f4")
                if payload.shape[1:] != (num_channels,) or written + len(payload) > num_frames:
                    raise FormatError(
                        f"{path}: a {payload.shape} block after row {written} does not fit "
                        f"{num_frames} x {num_channels} rows; nothing written"
                    )
                if not np.isfinite(payload).all():
                    row, column = np.argwhere(~np.isfinite(payload))[0]
                    raise FormatError(
                        f"{path}: value {float(rows[row, column])!r} at row {written + row}, column {column} "
                        "is not finite as float32; nothing written"
                    )
                file.write(payload)
                written += len(payload)
                rows = next(blocks, None)
            if written != num_frames:
                raise FormatError(f"{path}: the blocks hold {written} of {num_frames} rows; nothing written")
    except BaseException:
        os.unlink(path)
        raise


def _read_header(file, path) -> tuple[int, int, float, int]:
    """(frames, channels, frame shift, kind byte) of an open container, whose size must match its header."""
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
    return num_frames, num_channels, frame_shift_ms, kind_code


def _read_payload(file, path, payload: np.ndarray) -> np.ndarray:
    """`payload`, an array of the container's next rows, filled from `file`."""
    end = file.tell() - HEADER.size + payload.nbytes
    if file.readinto(payload) != payload.nbytes:
        raise FormatError(f"{path}: payload at byte offset {HEADER.size} ended before {end} bytes")
    return payload


def write_spfx(features: FeatureMatrix | FeatureRows, path) -> None:
    """Persist a feature matrix, or FeatureRows block by block as they come, as float32.

    Float32 rows are written from their own buffer.  A value that overflows
    float32, or a frame shift that is not finite and > 0 as float32, raises
    FormatError and leaves no file at `path`.
    """
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        shift = np.float32(features.frame_shift_ms)
    if not 0 < shift < np.inf:
        raise FormatError(
            f"{path}: frame_shift_ms {features.frame_shift_ms!r} is not finite and > 0 as float32; nothing written"
        )
    rows = features.rows() if isinstance(features, FeatureMatrix) else features
    _write(path, rows.frame_shift_ms, FEATURE_KINDS.index(rows.kind), (rows.num_frames, rows.num_channels), rows.blocks)


def read_spfx(path) -> FeatureMatrix:
    """Load a feature matrix that holds the payload as one float32 array: `read_spfx_rows(...).collect()`.

    Raises as `read_spfx_rows` does.
    """
    with open(path, "rb") as file:
        return read_spfx_rows(path, file).collect()


def read_spfx_rows(path, file) -> FeatureRows:
    """The header of the feature container `file` (`path`, open for reading); its payload is read as the blocks are taken.

    Header and payload problems raise FormatError naming the byte offset, and
    features that FeatureMatrix refuses, such as zero frames or a NaN, one
    naming the path: the header's at once, a block's when it is read.
    """
    num_frames, num_channels, frame_shift_ms, kind_code = _read_header(file, path)
    if kind_code >= len(FEATURE_KINDS):
        raise FormatError(f"{path}: unknown kind byte {kind_code} at byte offset 18")
    kind = FEATURE_KINDS[kind_code]
    try:
        check_features((num_frames, num_channels), frame_shift_ms, kind)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None

    def blocks():  # ROW_BLOCK rows at a time through one float32 buffer, each checked as FeatureMatrix checks its data
        buffer = np.empty((min(ROW_BLOCK, num_frames), num_channels), dtype="<f4")
        for first in range(0, num_frames, ROW_BLOCK):
            block = _read_payload(file, path, buffer[: num_frames - first])
            try:
                check_features(block.shape, frame_shift_ms, kind, block)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None
            yield block

    return FeatureRows(num_frames, num_channels, frame_shift_ms, kind, blocks())


def write_stats_container(stats: CorpusStats, path) -> None:
    """Persist corpus stats as a kind-255 container: mean row then variance row.

    A value that is not finite as float32 raises FormatError and leaves no file at `path`.
    """
    _write(path, 0.0, STATS_KIND, (2, stats.num_channels), [np.stack([stats.mean, stats.variance])])


def read_stats_container(path) -> CorpusStats:
    """Load corpus stats.  The frame count is not persisted; it loads as 1.

    Stats that CorpusStats refuses, such as a NaN, raise FormatError naming the path.
    """
    with open(path, "rb") as file:
        num_frames, num_channels, _, kind_code = _read_header(file, path)
        if kind_code != STATS_KIND:
            raise FormatError(f"{path}: kind byte {kind_code} at byte offset 18 is not a stats container ({STATS_KIND})")
        if num_frames != 2:
            raise FormatError(f"{path}: stats container must have 2 rows, got {num_frames} (byte offset 10)")
        mean, variance = _read_payload(file, path, np.empty((2, num_channels), dtype="<f4"))
    try:
        return CorpusStats(mean=mean, variance=variance, count=1)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
