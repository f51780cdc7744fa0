"""Output checks, written against the documented formats and not the package's readers.

A pipeline tree holds `<id>.spfx` and `<id>.masks` per utterance.  Each SPFX
file must parse with the expected frames x channels (computed by the
benchmark from the inputs it generated), the expected kind byte and finite
values.  Each sidecar must parse, hold the policy's mask count per axis with
distinct starts, stay inside the matrix and the policy's widths, and the cells
it names must be zero in the features.  Every file must be newer than the
start of the iteration that should have written it.

A verify grid must hold exactly the planned cells in order, each with the
planned trial count, an exact value equal to the benchmark's own enumeration,
a Monte Carlo standard error consistent with the enumerated variance, and a
Monte Carlo mean within 3 standard errors of the exact value.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gen import FRAME_SHIFT_MS, SPFX_HEADER, Utterance


@dataclass
class TreeReport:
    failed: list[str] = field(default_factory=list)
    masked_cells: int = 0
    total_cells: int = 0


def read_spfx(path: Path) -> tuple[int, float, np.ndarray]:
    """(kind, frame shift, frames x channels float32 payload) of a documented SPFX file."""
    raw = path.read_bytes()
    magic, version, channels, frames, shift, kind = SPFX_HEADER.unpack_from(raw, 0)
    if magic != b"SPFX" or version != 1 or raw[SPFX_HEADER.size - 3 : SPFX_HEADER.size] != b"\0\0\0":
        raise ValueError(f"{path.name}: bad header")
    if len(raw) != SPFX_HEADER.size + 4 * frames * channels:
        raise ValueError(f"{path.name}: payload is not {frames}x{channels} float32")
    payload = np.frombuffer(raw, dtype="<f4", offset=SPFX_HEADER.size).reshape(frames, channels)
    return kind, shift, payload


def parse_sidecar(text: str) -> list[tuple[str, int, int]]:
    masks = []
    for line in text.splitlines():
        axis, start, length = line.split("\t")
        if axis not in ("time", "frequency"):
            raise ValueError(f"unknown axis {axis!r}")
        masks.append((axis, int(start), int(length)))
    return masks


def check_utterance(out_dir: Path, utt: Utterance, channels: int, kind: int, policy: tuple[int, int, int, int]) -> tuple[int, int]:
    """Raise ValueError if the outputs for `utt` are wrong; return (masked cells, cells)."""
    got_kind, shift, data = read_spfx(out_dir / f"{utt.utterance_id}.spfx")
    if data.shape != (utt.frames, channels) or got_kind != kind or shift != FRAME_SHIFT_MS:
        raise ValueError(f"{utt.utterance_id}: shape {data.shape} kind {got_kind} shift {shift}")
    if not np.isfinite(data).all():
        raise ValueError(f"{utt.utterance_id}: non-finite values")
    masks = parse_sidecar((out_dir / f"{utt.utterance_id}.masks").read_text(encoding="utf-8"))
    max_freq, num_freq, max_time, num_time = policy
    rows = np.zeros(utt.frames, dtype=bool)
    cols = np.zeros(channels, dtype=bool)
    for axis, extent, max_width, count, covered in (
        ("time", utt.frames, max_time, num_time, rows),
        ("frequency", channels, max_freq, num_freq, cols),
    ):
        axis_masks = [(s, n) for a, s, n in masks if a == axis]
        if len(axis_masks) != min(count, extent) or len({s for s, _ in axis_masks}) != len(axis_masks):
            raise ValueError(f"{utt.utterance_id}: {len(axis_masks)} {axis} masks, or repeated starts")
        for start, length in axis_masks:
            if not (0 <= start < extent and 0 <= length <= max_width and start + length <= extent):
                raise ValueError(f"{utt.utterance_id}: {axis} mask ({start}, {length}) out of bounds")
            covered[start : start + length] = True
    if [a for a, _, _ in masks] != sorted((a for a, _, _ in masks), key=("time", "frequency").index):
        raise ValueError(f"{utt.utterance_id}: time masks must precede frequency masks")
    if data[rows].any() or data[:, cols].any():
        raise ValueError(f"{utt.utterance_id}: a masked cell is not zero")
    masked = utt.frames * channels - int((~rows).sum()) * int((~cols).sum())
    return masked, utt.frames * channels


def check_tree(out_dir: Path, utterances, channels: int, kind: int, policy) -> TreeReport:
    report = TreeReport()
    expected = {f"{u.utterance_id}{ext}" for u in utterances for ext in (".spfx", ".masks")}
    extra = {p.name for p in out_dir.iterdir()} - expected
    if extra:
        report.failed.append(f"unexpected files {sorted(extra)}")
    for utt in utterances:
        try:
            masked, total = check_utterance(out_dir, utt, channels, kind, policy)
        except (OSError, ValueError, struct.error) as exc:
            report.failed.append(str(exc))
            continue
        report.masked_cells += masked
        report.total_cells += total
    return report


def tree_digest(out_dir: Path) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def covered_moments(max_width: int, count: int, extent: int) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of the positions that
    `min(count, extent)` masks cover on an axis of `extent`, enumerated from the
    documented sampler: each width uniform on 0..max_width, starts an ordered
    tuple of distinct positions, each mask clamped at the axis end."""
    k = min(count, extent)
    values = [
        len({p for s, w in zip(starts, widths) for p in range(s, min(s + w, extent))})
        for starts in itertools.permutations(range(extent), k)
        for widths in itertools.product(range(max_width + 1), repeat=k)
    ]
    mean = sum(values) / len(values)
    return (
        mean,
        sum((v - mean) ** 2 for v in values) / len(values),
        sum((v - mean) ** 4 for v in values) / len(values),
    )


def check_grid(rows: list[dict], extents, max_widths, counts, trials: int) -> list[str]:
    """One message per planned cell whose row is missing or wrong.

    The reported standard error must match the enumerated one to within six
    of its own standard deviations (from the enumerated kurtosis), so a cell
    that ran fewer trials than it reports fails."""
    failed = []
    planned = list(itertools.product(extents, max_widths, counts))
    for i, (extent, max_width, count) in enumerate(planned):
        cell = f"cell ({extent}, {max_width}, {count})"
        row = rows[i] if i < len(rows) else None
        if row is None or (row["extent"], row["max_width"], row["count"]) != (extent, max_width, count):
            failed.append(f"{cell}: missing or out of order")
            continue
        mean, variance, fourth = covered_moments(max_width, count, extent)
        expected_stderr = math.sqrt(variance / trials)
        if variance > 0.0:
            # six relative standard deviations of a sample standard deviation, plus
            # a term of order 1/trials for the cells (fair coins) where that is 0
            stderr_tolerance = 6.0 * math.sqrt(max(fourth / variance**2 - 1.0, 0.0) / (4.0 * trials)) + 10.0 / trials
        if row["trials"] != trials:
            failed.append(f"{cell}: {row['trials']} trials, planned {trials}")
        elif not math.isclose(row["exact"], mean, rel_tol=1e-12, abs_tol=1e-12):
            failed.append(f"{cell}: exact {row['exact']} but enumeration gives {mean}")
        elif variance == 0.0 and (row["mc_stderr"] != 0.0 or row["mc_mean"] != mean):
            failed.append(f"{cell}: a constant count but mc_mean {row['mc_mean']}, stderr {row['mc_stderr']}")
        elif variance > 0.0 and not abs(row["mc_stderr"] / expected_stderr - 1.0) <= stderr_tolerance:
            failed.append(f"{cell}: stderr {row['mc_stderr']} but enumeration gives {expected_stderr}")
        elif not abs(row["mc_mean"] - mean) <= 3.0 * row["mc_stderr"] or not row["passed"]:
            failed.append(f"{cell}: mc_mean {row['mc_mean']} not within 3 stderr of {mean}")
    if len(rows) > len(planned):
        failed.append(f"{len(rows) - len(planned)} cells beyond the planned grid")
    return failed
