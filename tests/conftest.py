"""Shared test fixtures and independent-route helpers."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from specmask.features import DspConfig, extract, read_wav
from specmask.masking import AugmentPolicy, augment
from specmask.render import render_masks_pgm
from specmask.rng import RngState, derive_utterance_seed

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"
GOLDEN_SEED = 20260814
FIGURE_POLICIES = (
    ("none", AugmentPolicy(0, 0, 0, 0)),
    ("time", AugmentPolicy(0, 0, 10, 2)),
    ("freq", AugmentPolicy(8, 2, 0, 0)),
    ("both", AugmentPolicy(8, 2, 10, 2)),
)


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


def tree_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


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
