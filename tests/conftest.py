"""Shared test fixtures and independent-route helpers."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from specmask.errors import ConfigError
from specmask.features import DspConfig, extract, read_wav
from specmask.masking import AugmentPolicy, augment, check_axis
from specmask.render import render_masks_pgm
from specmask.rng import MASK64, RngState, derive_utterance_seed, next_u64

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"
GOLDEN_SEED = 20260814
FIGURE_POLICIES = (
    ("none", AugmentPolicy(0, 0, 0, 0)),
    ("time", AugmentPolicy(0, 0, 10, 2)),
    ("freq", AugmentPolicy(8, 2, 0, 0)),
    ("both", AugmentPolicy(8, 2, 10, 2)),
)

#: Most (width tuple, start tuple) pairs `brute_force_masked_mean` walks.
MAX_ENUMERATION = 10**7


def write_wav(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write 16-bit mono PCM through the stdlib wave module.

    This is the independent writer: the package's reader is a hand-rolled
    RIFF parser, so agreement between the two is a real cross-check.
    """
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def write_wav_int16(path: Path, values: list[int], sample_rate: int) -> None:
    """Same as write_wav but takes raw int16 values."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(np.asarray(values, dtype="<i2").tobytes())


def write_spfx_raw(path: Path, rows: np.ndarray, kind_code: int, frame_shift_ms: float = 10.0) -> None:
    """Write an SPFX container with `struct` from the documented layout.

    The independent writer for inputs: a change to the package's writer
    cannot change what a test reads.
    """
    rows = np.asarray(rows, dtype="<f4")
    header = struct.pack("<4sHIIfB3x", b"SPFX", 1, rows.shape[1], rows.shape[0], frame_shift_ms, kind_code)
    path.write_bytes(header + rows.tobytes())


def build_corpus(root: Path, count: int, seconds: float = 0.2) -> Path:
    """Synthetic WAV corpus plus manifest; returns the manifest path."""
    rng = np.random.default_rng(1234)
    lines = []
    n = int(16000 * seconds)
    t = np.arange(n) / 16000.0
    for i in range(count):
        freq = 200.0 + 130.0 * i
        samples = 0.4 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.normal(size=n)
        name = f"utt{i:03d}"
        write_wav(root / f"{name}.wav", samples, 16000)
        lines.append(f"{name}\t{name}.wav")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return manifest


def brute_force_masked_mean(max_width: int, count: int, extent: int) -> float:
    """Exact E[positions covered by the union of `count` masks], by enumeration.

    The reference for `stats.exact_masked_mean_multi`, by another route: start
    rejection-resampling makes every ordered tuple of distinct starts equally
    likely, so this walks all width tuples crossed with all ordered distinct
    start tuples at equal weight and counts each union's positions.  Counts
    above the extent are capped exactly as the sampler caps them.  A bad axis
    is refused by `masking.check_axis`, and a walk above MAX_ENUMERATION
    tuples with ConfigError.
    """
    max_width, count, extent = check_axis(max_width, count, extent)
    effective = min(count, extent)
    if effective == 0:
        return 0.0
    size = (max_width + 1) ** effective * math.perm(extent, effective)
    if size > MAX_ENUMERATION:
        raise ConfigError(
            f"enumeration size {size} exceeds the {MAX_ENUMERATION} bound "
            f"((max_width+1)^count * extent!/(extent-count)! with max_width={max_width}, "
            f"count={effective}, extent={extent})"
        )
    total = 0
    widths = list(itertools.product(range(max_width + 1), repeat=effective))
    for starts in itertools.permutations(range(extent), effective):
        for width_tuple in widths:
            covered = 0
            for s, w in zip(starts, width_tuple):
                length = min(w, extent - s)
                covered |= ((1 << length) - 1) << s
            total += covered.bit_count()
    return total / size


def substream(seed: int, index: int) -> RngState:
    """Scalar reference for `rng.substream_batch`: the state of child stream `index` of `seed`.

    One SplitMix64 output of the index, folded into the seed, then one output
    of the result, in Python ints.
    """
    z, _ = next_u64(RngState(index & MASK64))
    out, _ = next_u64(RngState((seed ^ z) & MASK64))
    return RngState(out)


def run_python(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """Run `python args...` against this checkout's package in a child process.

    For calls that could loop forever: the timeout kills the child and fails
    the test instead of hanging the suite.
    """
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def build_spfx_corpus(root: Path) -> Path:
    """Six 16-channel MFCC SPFX inputs of 40 to 135 frames plus manifest; returns the manifest path."""
    rng = np.random.default_rng(4242)
    lines = []
    for i in range(6):
        data = rng.normal(loc=rng.uniform(-5.0, 5.0, 16), scale=rng.uniform(0.5, 3.0, 16), size=(40 + 19 * i, 16))
        write_spfx_raw(root / f"in{i}.spfx", data, kind_code=1)
        lines.append(f"u{i}\tin{i}.spfx\n")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


def golden_stats(path: Path, channels: int) -> None:
    """Write a stats container with a nonzero mean, non-unit variances and one variance below the floor."""
    rng = np.random.default_rng(8080)
    mean = rng.uniform(-4.0, 4.0, channels)
    variance = rng.uniform(0.2, 9.0, channels)
    variance[3] = 1e-9  # below VARIANCE_FLOOR
    write_spfx_raw(path, np.stack([mean, variance]), kind_code=255, frame_shift_ms=0.0)


def tree_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def tree_digest(out_dir: Path) -> str:
    """SHA-256 over every file of a tree: name, length and bytes, in name order."""
    digest = hashlib.sha256()
    for name, blob in tree_bytes(out_dir).items():
        digest.update(f"{name}\0{len(blob)}\0".encode() + blob)
    return digest.hexdigest()


def figure_panels(out_dir: Path) -> dict[str, bytes]:
    """Render the four fixed-seed masking panels compared against goldens."""
    rng = np.random.default_rng(GOLDEN_SEED)
    n = 5600
    t = np.arange(n) / 16000.0
    samples = (
        0.45 * np.sin(2 * np.pi * 320.0 * t)
        + 0.25 * np.sin(2 * np.pi * 1640.0 * t) * np.sin(2 * np.pi * 1.5 * t)
        + 0.05 * rng.normal(size=n)
    )
    wav = out_dir / "golden.wav"
    write_wav(wav, samples, 16000)
    features = extract(read_wav(wav), DspConfig())
    panels = {}
    for name, policy in FIGURE_POLICIES:
        mask_rng = RngState(derive_utterance_seed(GOLDEN_SEED, name))
        _, masks, _ = augment(features, policy, mask_rng)
        path = out_dir / f"panel_{name}.pgm"
        render_masks_pgm(features, masks, path)
        panels[name] = path.read_bytes()
    return panels


@pytest.fixture
def tone_wav(tmp_path: Path) -> Path:
    """A deterministic 0.5 s 16 kHz test tone."""
    t = np.arange(8000) / 16000.0
    samples = 0.5 * np.sin(2 * np.pi * 440.0 * t) + 0.25 * np.sin(2 * np.pi * 1330.0 * t)
    path = tmp_path / "tone.wav"
    write_wav(path, samples, 16000)
    return path
