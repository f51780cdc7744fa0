"""Seeded benchmark inputs: WAV corpora, MFCC-shaped SPFX files, stats files, manifests.

Everything is written with the standard library (`wave`, `struct`) and numpy
from the file layouts the package documents, never through the package
itself, so the inputs do not depend on the code they exercise.  The same
seed gives the same bytes; a different seed gives different bytes.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
#: DspConfig defaults at 16 kHz: 25 ms frames every 10 ms, the last partial frame dropped.
FRAME_LEN = 400
FRAME_STEP = 160
FRAME_SHIFT_MS = 10.0

#: SPFX header as documented: magic, version u16, channels u32, frames u32,
#: frame shift f32 (ms), kind u8, three zero pad bytes; float32 payload follows.
SPFX_HEADER = struct.Struct("<4sHIIfB3x")
KIND_MFCC = 1
KIND_STANDARDIZED_MFCC = 3
KIND_LOG_MEL = 0
KIND_STATS = 255

#: Utterance lengths: (quantile, seconds) points of a piecewise-linear
#: quantile function, a few seconds up to 30 s, mean about 12.9 s.  This is an
#: assumed mix, not one taken from a published LibriSpeech duration
#: distribution: it is fitted only to a range of "a few to about 30 s" and to a
#: scratch corpus with an 11.5 s mean.
LENGTH_QUANTILES = ((0.0, 2.0), (0.1, 5.0), (0.3, 11.0), (0.5, 14.0), (0.8, 15.8), (0.95, 20.0), (1.0, 30.0))


@dataclass(frozen=True)
class Utterance:
    """One generated input and the output shape the benchmark expects for it."""

    utterance_id: str
    frames: int
    audio_s: float


@dataclass(frozen=True)
class Corpus:
    manifest: Path
    utterances: tuple[Utterance, ...]

    @property
    def audio_s(self) -> float:
        return sum(u.audio_s for u in self.utterances)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def utterance_lengths(count: int) -> np.ndarray:
    """Evenly spaced quantiles of the length mix, in a fixed interleaved order.

    The lengths are the same for every seed: the seed changes the bytes but
    not the amount, sizes or order of work.  Peak memory depends on the exact
    sequence of array sizes the allocator sees, so varying the lengths by
    seed would make `peak_rss_mb` jump between seeds.
    """
    q = (np.arange(count) + 0.5) / count
    points_q, points_s = zip(*LENGTH_QUANTILES)
    return np.interp(q, points_q, points_s)[np.random.default_rng(0).permutation(count)]


def _write_manifest(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_wav(path: Path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.astype("<i2").tobytes())


def _voice(num_samples: int, rng: np.random.Generator) -> np.ndarray:
    """A voiced-sounding signal: a few harmonics under a syllable-rate envelope, plus noise."""
    t = np.arange(num_samples) / SAMPLE_RATE
    f0 = rng.uniform(90.0, 250.0)
    signal = np.zeros(num_samples)
    for harmonic in range(1, 6):
        signal += rng.uniform(0.05, 0.3) / harmonic * np.sin(2 * np.pi * f0 * harmonic * t + rng.uniform(0, 2 * np.pi))
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t)
    signal = signal * envelope + 0.02 * rng.standard_normal(num_samples)
    return np.clip(np.round(signal * 32767.0), -32768, 32767)


def write_wav_corpus(root: Path, count: int, seed: int) -> Corpus:
    """`count` 16-bit mono 16 kHz WAV files plus `manifest.tsv` in `root`."""
    root.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 1)
    utterances, lines = [], []
    for i, seconds in enumerate(utterance_lengths(count)):
        num_samples = int(round(seconds * SAMPLE_RATE))
        uid = f"utt{i:04d}"
        write_wav(root / f"{uid}.wav", _voice(num_samples, rng))
        frames = (num_samples - FRAME_LEN) // FRAME_STEP + 1
        utterances.append(Utterance(uid, frames, num_samples / SAMPLE_RATE))
        lines.append(f"{uid}\t{uid}.wav")
    manifest = root / "manifest.tsv"
    _write_manifest(manifest, lines)
    return Corpus(manifest, tuple(utterances))


def spfx_bytes(payload: np.ndarray, kind: int, frame_shift_ms: float) -> bytes:
    frames, channels = payload.shape
    header = SPFX_HEADER.pack(b"SPFX", 1, channels, frames, frame_shift_ms, kind)
    return header + np.ascontiguousarray(payload, dtype="<f4").tobytes()


def write_stats(path: Path, mean: np.ndarray, variance: np.ndarray) -> None:
    """A kind-255 stats container: the mean row, then the variance row."""
    path.write_bytes(spfx_bytes(np.stack([mean, variance]), KIND_STATS, 0.0))


def write_spfx_corpus(root: Path, count: int, channels: int, seed: int) -> tuple[Corpus, Path]:
    """MFCC-shaped `.spfx` inputs, their manifest, and a stats container computed from them."""
    root.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 2)
    channel_mean = rng.normal(0.0, 5.0, channels)
    channel_std = rng.uniform(0.5, 8.0, channels)
    utterances, lines = [], []
    total = np.zeros(channels)
    total_sq = np.zeros(channels)
    num_frames = 0
    for i, seconds in enumerate(utterance_lengths(count)):
        frames = int(round(seconds * 1000.0 / FRAME_SHIFT_MS))
        data = (channel_mean + channel_std * rng.standard_normal((frames, channels))).astype("<f4")
        uid = f"utt{i:04d}"
        (root / f"{uid}.spfx").write_bytes(spfx_bytes(data, KIND_MFCC, FRAME_SHIFT_MS))
        values = data.astype(np.float64)
        total += values.sum(axis=0)
        total_sq += (values**2).sum(axis=0)
        num_frames += frames
        utterances.append(Utterance(uid, frames, frames * FRAME_SHIFT_MS / 1000.0))
        lines.append(f"{uid}\t{uid}.spfx")
    manifest = root / "manifest.tsv"
    _write_manifest(manifest, lines)
    mean = total / num_frames
    stats_path = root / "corpus.spfx-stats"
    write_stats(stats_path, mean, np.maximum(total_sq / num_frames - mean**2, 0.0))
    return Corpus(manifest, tuple(utterances)), stats_path


def write_setup_inputs(root: Path, channels: int) -> tuple[Path, Path]:
    """A zero-record manifest and a unit stats container, for timing set-up alone."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = root / "empty.tsv"
    _write_manifest(manifest, [])
    stats_path = root / "unit.spfx-stats"
    write_stats(stats_path, np.zeros(channels), np.ones(channels))
    return manifest, stats_path
