"""WAV decoding and log-mel / MFCC feature extraction.

`read_wav` decodes 16-bit PCM to float32, which holds every sample times
2**-15 exactly.  From pre-emphasis on, all arithmetic is float64 and
deterministic: the same input bytes and configuration produce bit-identical
feature matrices on the same machine, BLAS build and BLAS thread count.
The matmuls go through BLAS, whose rounding can follow its kernel and
thread count: at `iwslt-like` (n_fft 1024) one thread and two give
different bytes, each repeatable.  `extract_rows` makes the features one
chunk of MEL_BLOCK frames at a time, counted from frame 0, so the bytes
follow MEL_BLOCK too; `extract` collects those rows into one matrix.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, EmptyInputError, FormatError, UnsupportedFormatError

#: Legal values of FeatureMatrix.kind.  A kind's index is its SPFX kind
#: byte, so a new kind is only ever appended.
FEATURE_KINDS = ("log_mel", "mfcc", "standardized_log_mel", "standardized_mfcc")

#: Frames that `extract` windows and transforms together.  Results do not
#: depend on it; 16 and 32 ran slower, 128 and 512 about as fast
#: (`BENCH_frontend_blocks.json` has the sweep).
FRAME_BLOCK = 64

#: Frames in each of `extract_rows`'s chunks, whose mel and DCT products are
#: one BLAS call each.  Float64 feature bytes follow it, as they follow the
#: BLAS kernel and thread count.
MEL_BLOCK = 256

#: Rows that `FeatureMatrix.rows` and `read_spfx_rows` hand on together.  Results do not
#: depend on it.  At 80 channels 768 rows keep a re-augmented record under 0.5 MiB; in a
#: plain process 512 ran slower than 256 and 768 (`BENCH_streamed_records.json`).
ROW_BLOCK = 768

_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _float32_or_float64(values) -> np.ndarray:
    """`values` as an array: a float32 array as it is, anything else widened to float64."""
    array = np.asarray(values)
    return array if array.dtype == np.float32 else array.astype(np.float64, copy=False)


class WavSamples:
    """An open WAV file's 16-bit samples; each slice is read and decoded, as `read_wav` decodes, when it is taken."""

    def __init__(self, file, offset: int, size: int) -> None:
        self.file, self.offset, self.size = file, offset, size

    def __getitem__(self, index: slice) -> np.ndarray:
        start, stop, step = index.indices(self.size)
        if step != 1:
            raise ValueError(f"WavSamples slices take a step of 1, got {step}")
        pcm = np.empty(max(stop - start, 0), dtype="<i2")
        self.file.seek(self.offset + 2 * start)
        if self.file.readinto(pcm) != pcm.nbytes:
            raise FormatError(f"{self.file.name}: data chunk ended before sample {stop}")
        return np.multiply(pcm, 2.0**-15, dtype=np.float32)


@dataclass(frozen=True)
class PcmSignal:
    """Mono PCM audio: samples nominally in [-1, 1] plus the sample rate in Hz.

    A float32 array, such as `read_wav`'s exact decoding of 16-bit PCM, is
    kept as it is, and `WavSamples` too; any other input is widened to
    float64.  The front end computes in float64 either way.
    """

    samples: np.ndarray | WavSamples
    sample_rate: int

    def __post_init__(self) -> None:
        if isinstance(self.samples, WavSamples):
            return
        object.__setattr__(self, "samples", _float32_or_float64(self.samples))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


@dataclass(frozen=True)
class FeatureMatrix:
    """T x num_channels feature frames (time-major) with frame-rate metadata.

    A float32 array, such as `read_spfx`'s payload, is kept as it is; any
    other input is widened to float64.  `extract` builds float64 matrices.
    The package computes on either in float64; a value is rounded to float32
    only when it is stored in a float32 array or written to SPFX.
    """

    data: np.ndarray
    frame_shift_ms: float
    kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _float32_or_float64(self.data))
        check_features(self.data.shape, self.frame_shift_ms, self.kind, self.data)

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def num_channels(self) -> int:
        return self.data.shape[1]

    def rows(self) -> FeatureRows:
        """This matrix as FeatureRows of ROW_BLOCK-row views of its own data."""
        data = self.data
        blocks = (data[first : first + ROW_BLOCK] for first in range(0, len(data), ROW_BLOCK))
        return FeatureRows(self.num_frames, self.num_channels, self.frame_shift_ms, self.kind, blocks)


def check_features(shape: tuple[int, ...], frame_shift_ms: float, kind: str, data=None) -> None:
    """FeatureMatrix's checks on a shape, finite `data` if given, a frame shift and a kind; raises ValueError."""
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"data must be a 2-D matrix with T >= 1 and channels >= 1, got shape {shape}")
    if data is not None and not np.isfinite(data).all():
        raise ValueError("feature data must be finite")
    if not (math.isfinite(frame_shift_ms) and frame_shift_ms > 0):
        raise ValueError(f"frame_shift_ms must be finite and > 0, got {frame_shift_ms}")
    if kind not in FEATURE_KINDS:
        raise ValueError(f"kind must be one of {FEATURE_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class FeatureRows:
    """A T x num_channels record whose `blocks` yield its rows in order, once, each made as it is taken.

    A record's blocks may differ in length, and in dtype after `standardize`
    meets an overflow, but together they hold num_frames rows of num_channels
    values; `collect()` and `write_spfx` refuse blocks that do not.  A producer
    may reuse a block's array once the next is taken, and `apply_masks` zeroes
    blocks in place.
    """

    num_frames: int
    num_channels: int
    frame_shift_ms: float
    kind: str
    blocks: Iterator[np.ndarray]

    def collect(self) -> FeatureMatrix:
        """These rows, taken block by block, in one matrix of its first block's dtype and with their bytes.

        Raises ValueError when a block is not num_channels wide or the blocks
        do not hold num_frames rows.
        """
        data, first = None, 0
        for block in self.blocks:
            if block.shape[1:] != (self.num_channels,) or first + len(block) > self.num_frames:
                raise ValueError(
                    f"a {block.shape} block after row {first} does not fit {self.num_frames} x {self.num_channels} rows"
                )
            if data is None:
                data = np.empty((self.num_frames, self.num_channels), dtype=block.dtype)
            data[first : first + len(block)] = block
            first += len(block)
        if first != self.num_frames:
            raise ValueError(f"the blocks hold {first} of {self.num_frames} rows")
        return FeatureMatrix(data=data, frame_shift_ms=self.frame_shift_ms, kind=self.kind)


@dataclass(frozen=True)
class DspConfig:
    """Front-end parameters.

    `n_fft=None` selects the smallest power of two that covers one frame;
    `n_coeffs=None` keeps all mel channels when computing MFCCs;
    `fmax_hz=None` means Nyquist.
    """

    pre_emphasis: float = 0.97
    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0
    n_fft: int | None = None
    n_mels: int = 40
    n_coeffs: int | None = None
    log_floor: float = 1e-10
    fmin_hz: float = 0.0
    fmax_hz: float | None = None
    feature: str = "log_mel"

    def __post_init__(self) -> None:
        for name in ("frame_len_ms", "frame_shift_ms", "log_floor", "fmin_hz", "fmax_hz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise ConfigError(f"pre_emphasis must be in [0, 1), got {self.pre_emphasis}")
        if self.frame_len_ms <= 0 or self.frame_shift_ms <= 0:
            raise ConfigError("frame_len_ms and frame_shift_ms must be positive")
        if self.frame_shift_ms > _FLOAT32_MAX:  # SPFX headers store the shift as float32
            raise ConfigError(
                f"frame_shift_ms must be at most the float32 maximum {_FLOAT32_MAX!r}, got {self.frame_shift_ms}"
            )
        if self.n_fft is not None and (self.n_fft < 1 or self.n_fft & (self.n_fft - 1)):
            raise ConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.n_coeffs is not None and not 1 <= self.n_coeffs <= self.n_mels:
            raise ConfigError(f"n_coeffs must be in [1, n_mels={self.n_mels}], got {self.n_coeffs}")
        if self.log_floor <= 0:
            raise ConfigError(f"log_floor must be positive, got {self.log_floor}")
        if self.fmin_hz < 0:
            raise ConfigError(f"fmin_hz must be >= 0, got {self.fmin_hz}")
        if self.feature not in ("log_mel", "mfcc"):
            raise ConfigError(f"feature must be 'log_mel' or 'mfcc', got {self.feature!r}")

    def frame_length(self, sample_rate: int) -> int:
        return int(self.frame_len_ms * sample_rate / 1000.0 + 0.5)

    def frame_step(self, sample_rate: int) -> int:
        return int(self.frame_shift_ms * sample_rate / 1000.0 + 0.5)

    def fft_size(self, sample_rate: int) -> int:
        frame_len = self.frame_length(sample_rate)
        if self.n_fft is not None:
            if self.n_fft < frame_len:
                raise ConfigError(f"n_fft={self.n_fft} is smaller than the frame length {frame_len}")
            return self.n_fft
        n = 1
        while n < frame_len:
            n *= 2
        return n

    def effective_fmax(self, sample_rate: int) -> float:
        return sample_rate / 2.0 if self.fmax_hz is None else self.fmax_hz

    def effective_n_coeffs(self) -> int:
        return self.n_mels if self.n_coeffs is None else self.n_coeffs

    @property
    def num_channels(self) -> int:
        """Channels of the features: n_mels log-mel bands or effective_n_coeffs() MFCCs."""
        return self.effective_n_coeffs() if self.feature == "mfcc" else self.n_mels


#: Named front-end configurations: 40-channel log-mel and 80-coefficient MFCC.
#: 80 mel filters need a 1024-point FFT at 16 kHz to keep the edge bins distinct.
DSP_PRESETS = {
    "librispeech-like": DspConfig(n_mels=40, feature="log_mel"),
    "iwslt-like": DspConfig(n_mels=80, n_coeffs=80, feature="mfcc", n_fft=1024),
}


def _wav_signal(file, path) -> PcmSignal:
    """The signal of an open RIFF/WAVE file, holding `WavSamples` of its data chunk.

    Malformed containers raise FormatError; well-formed files with an
    unsupported encoding raise UnsupportedFormatError naming the field.
    """
    size = os.fstat(file.fileno()).st_size
    head = file.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF":
        raise FormatError(f"{path}: not a RIFF container (bad magic at byte offset 0)")
    if head[8:12] != b"WAVE":
        raise FormatError(f"{path}: RIFF form type is not WAVE (byte offset 8)")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        file.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", file.read(8))
        if pos + 8 + chunk_size > size:
            raise FormatError(f"{path}: chunk {chunk_id!r} at byte offset {pos} is truncated")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"{path}: fmt chunk too short ({chunk_size} bytes)")
            fmt = struct.unpack("<HHIIHH", file.read(16))
        elif chunk_id == b"data":
            data = (pos + 8, chunk_size)
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormatError(f"{path}: audio_format={audio_format} (only PCM format 1 is supported)")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: channels={channels} (only mono is supported)")
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: bits_per_sample={bits} (only 16-bit is supported)")
    if sample_rate == 0:
        raise FormatError(f"{path}: sample_rate is zero")
    offset, length = data
    if length == 0:
        raise FormatError(f"{path}: data chunk is empty")
    if length % 2:
        raise FormatError(f"{path}: data chunk length {length} is not a multiple of 2")
    return PcmSignal(samples=WavSamples(file, offset, length // 2), sample_rate=sample_rate)


def read_wav(path, file=None) -> PcmSignal:
    """Decode a RIFF/WAVE file holding 16-bit mono PCM.

    Samples are scaled by 2**-15 into float32.  Every product is exact: an
    int16 has 16 significant bits and float32 holds 24, so the samples equal
    a float64 decoding at half its size.  With `file`, `path` open for
    reading, only the header is read now: the signal's `WavSamples` read
    each slice the front end takes while `file` stays open.
    """
    if file is not None:
        return _wav_signal(file, path)
    with open(path, "rb") as file:
        signal = _wav_signal(file, path)
        return replace(signal, samples=signal.samples[:])


def wav_sample_rate(path) -> int:
    """The sample rate in the header of the WAV file at `path`, which is checked as `read_wav` checks it."""
    with open(path, "rb") as file:
        return _wav_signal(file, path).sample_rate


def pre_emphasize(samples: np.ndarray, coeff: float) -> np.ndarray:
    """First-order high-pass y[n] = x[n] - coeff*x[n-1], with y[0] = x[0].

    Returns a new float64 array: the input widened to float64 once, exactly,
    then the multiply and subtract run on float64 operands.
    """
    out = np.array(samples, dtype=np.float64)
    if coeff != 0.0:  # x - 0*x[n-1] would turn -0.0 into 0.0 and inf into nan
        out[1:] -= coeff * out[:-1]
    return out


@lru_cache(maxsize=64)
def _rate_frames(cfg: DspConfig, sample_rate: int) -> tuple[int, int, int]:
    """(frame_len, step, n_fft) of `cfg` at `sample_rate`; raises ConfigError when the frame
    length or step rounds below one sample or n_fft is below the frame length (`fft_size`)."""
    frame_len, step = cfg.frame_length(sample_rate), cfg.frame_step(sample_rate)
    if min(frame_len, step) < 1:
        raise ConfigError(
            f"frame length {frame_len} and step {step} samples at {sample_rate} Hz: "
            "frame_len_ms and frame_shift_ms must each cover at least one sample"
        )
    return frame_len, step, cfg.fft_size(sample_rate)


@lru_cache(maxsize=64)
def check_rate(cfg: DspConfig, sample_rate: int) -> None:
    """Raise the ConfigError that `cfg` meets at `sample_rate` whatever the signal.

    These are the front end's checks that depend on the rate alone:
    `_rate_frames`' and `mel_filterbank`'s, without building the bank.
    `extract_rows` runs them before it reads a sample.
    """
    n_fft = _rate_frames(cfg, sample_rate)[2]
    _mel_edge_bins(cfg.n_mels, n_fft, sample_rate, cfg.fmin_hz, cfg.effective_fmax(sample_rate))


def _frame_geometry(signal: PcmSignal, cfg: DspConfig) -> tuple[int, int, int, int]:
    """(frame_len, step, n_fft, num_frames) of `signal` under `cfg`.

    The last partial frame is dropped; raises as `_rate_frames` does, then
    EmptyInputError when the signal is shorter than one frame.  A step of at
    least the signal length gives the same single frame as any other, so the
    step is clamped to that length and stays a valid byte stride.
    """
    frame_len, step, n_fft = _rate_frames(cfg, signal.sample_rate)
    size = signal.samples.size
    if size < frame_len:
        raise EmptyInputError(f"signal of {size} samples is shorter than one {frame_len}-sample frame")
    step = min(step, size)
    return frame_len, step, n_fft, (size - frame_len) // step + 1


def frame_and_window(
    signal: PcmSignal, cfg: DspConfig, first: int = 0, last: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Pre-emphasize, slice into Hamming-windowed frames, zero-pad to the FFT size.

    Returns frames first..last-1 (all by default) as a (last - first, n_fft)
    float64 array.  With `out`, a float64 array of at least that shape, the
    windowed samples fill the first frame_len columns of its leading rows,
    which are returned; the padding is left as it is, so a buffer zeroed once
    serves every block.  Only the samples those frames cover are read and
    pre-emphasized, with the bytes of emphasizing the whole signal.  The
    frames are a strided view of those samples, multiplied FRAME_BLOCK rows
    at a time by the cached window rows, whatever the number of frames.
    """
    frame_len, step, n_fft, num_frames = _frame_geometry(signal, cfg)
    last = num_frames if last is None else last
    if not 0 <= first < last <= num_frames:
        raise ValueError(f"frames {first}..{last - 1} are not within the signal's {num_frames} frames")
    lo = first * step
    before = 1 if lo else 0  # y[lo] needs x[lo - 1]; its own output is dropped
    emphasized = pre_emphasize(signal.samples[lo - before : (last - 1) * step + frame_len], cfg.pre_emphasis)
    size = emphasized.itemsize
    strided = np.ndarray((last - first, frame_len), np.float64, emphasized, before * size, (step * size, size))
    # window each strided frame straight into the zero-padded buffer rfft reads
    frames = np.zeros((last - first, n_fft)) if out is None else out[: last - first]
    window = _constant(_window_rows, frame_len)
    for row in range(0, last - first, FRAME_BLOCK):
        rows = strided[row : row + FRAME_BLOCK]
        np.multiply(rows, window[: len(rows)], out=frames[row : row + len(rows), :frame_len])
    return frames


def power_spectrum(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One-sided power spectrum |DFT_k|^2 per frame, bins 0..n_fft/2.

    With `out`, a float64 (num_frames, n_fft/2+1) array, the power is written
    there and `out` is returned.
    """
    frames = np.asarray(frames, dtype=np.float64)
    power = np.abs(np.fft.rfft(frames, axis=1), out=out)
    np.square(power, out=power)
    if not np.isfinite(power).all():
        raise ValueError("power spectrum is not finite; check the input frames")
    return power


@lru_cache(maxsize=64)
def _constant(build, *args) -> np.ndarray:
    """`build(*args)`, built once per argument tuple and shared read-only.

    Holds the window rows, filterbank and DCT matrix that every utterance of
    a run reuses; the public builders still return a fresh, writable array.
    """
    array = build(*args)
    array.setflags(write=False)
    return array


def _window_rows(frame_len: int) -> np.ndarray:
    """FRAME_BLOCK rows of the frame_len-point Hamming window: faster to multiply by than one broadcast row."""
    return np.tile(np.hamming(frame_len), (FRAME_BLOCK, 1))


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edge_bins(n_mels: int, n_fft: int, sample_rate: int, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """`mel_filterbank`'s n_mels+2 edge points as FFT bins, after its checks."""
    if not 0 <= fmin_hz < fmax_hz <= sample_rate / 2.0:
        raise ConfigError(
            f"need 0 <= fmin < fmax <= sample_rate/2, got fmin={fmin_hz}, fmax={fmax_hz}, rate={sample_rate}"
        )
    not_distinct = ConfigError(
        f"{n_mels + 2} mel edge points are not distinct after rounding to {n_fft}-point FFT bins; "
        "reduce n_mels or increase n_fft"
    )
    if n_mels + 2 > (n_fft + 1) // 2 + 1:  # more edges than bins 0..(n_fft+1)//2; refused before allocating
        raise not_distinct
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    bin_points = np.floor((n_fft + 1) * mel_to_hz(mel_points) / sample_rate).astype(int)
    if np.any(np.diff(bin_points) < 1):
        raise not_distinct
    return bin_points


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Triangular filters on n_mels+2 equally-mel-spaced edge points over [fmin, fmax].

    Edge points are rounded to FFT bins; they must stay distinct after
    rounding or the filter shapes degenerate (ConfigError).
    """
    bin_points = _mel_edge_bins(n_mels, n_fft, sample_rate, fmin_hz, fmax_hz)
    bank = np.zeros((n_mels, n_fft // 2 + 1))
    for i in range(n_mels):
        left, center, right = bin_points[i], bin_points[i + 1], bin_points[i + 2]
        k = np.arange(left, center)
        bank[i, k] = (k - left) / (center - left)
        k = np.arange(center, right)
        bank[i, k] = (right - k) / (right - center)
    return bank


def _mel_bank(cfg: DspConfig, n_fft: int, sample_rate: int) -> np.ndarray:
    return _constant(mel_filterbank, cfg.n_mels, n_fft, sample_rate, cfg.fmin_hz, cfg.effective_fmax(sample_rate))


def mel_energies(
    power: np.ndarray, cfg: DspConfig, sample_rate: int, out: np.ndarray | None = None
) -> FeatureMatrix:
    """Filter-weighted band energies followed by log(max(x, log_floor)).

    The floor and the log run in place on the matmul's own array, so the
    returned matrix is the only one of its size that this allocates.  With
    `out`, a float64 (num_frames, n_mels) array, the matmul writes there and
    the returned matrix holds `out`.
    """
    n_fft = 2 * (power.shape[1] - 1)
    energies = np.matmul(power, _mel_bank(cfg, n_fft, sample_rate).T, out=out)
    np.maximum(energies, cfg.log_floor, out=energies)
    np.log(energies, out=energies)
    return FeatureMatrix(data=energies, frame_shift_ms=cfg.frame_shift_ms, kind="log_mel")


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix G with G @ G.T = I."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    g = np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    g[0] *= np.sqrt(1.0 / n)
    g[1:] *= np.sqrt(2.0 / n)
    return g


def mfcc_from_logmel(logmel: FeatureMatrix, n_coeffs: int) -> FeatureMatrix:
    """Per-frame orthonormal DCT-II over channels, keeping coefficients 0..n_coeffs-1."""
    if logmel.kind != "log_mel":
        raise ValueError(f"mfcc_from_logmel requires kind 'log_mel', got {logmel.kind!r}")
    if n_coeffs > logmel.num_channels:
        raise ConfigError(f"n_coeffs={n_coeffs} exceeds the {logmel.num_channels} mel channels")
    g = _constant(dct_matrix, logmel.num_channels)
    coeffs = logmel.data @ g[:n_coeffs].T
    return replace(logmel, data=coeffs, kind="mfcc")


def extract_rows(signal: PcmSignal, cfg: DspConfig) -> FeatureRows:
    """Full front end as FeatureRows: frame/window -> power spectrum -> log-mel -> optional MFCC.

    Rows are made one chunk of MEL_BLOCK frames at a time as they are
    taken, counted from frame 0, the last chunk shorter.  A chunk's frames
    are windowed and transformed FRAME_BLOCK at a time into one power
    buffer, and the mel matmul, floor, log and DCT run over the chunk's
    rows.  So with `read_wav(path, file)`'s samples a record holds one
    frame block's samples and at most MEL_BLOCK rows of each stage,
    whatever its length.  `check_rate` runs first, so a config that no
    signal at this rate can pass is refused at once.
    """
    check_rate(cfg, signal.sample_rate)
    _, _, n_fft, num_frames = _frame_geometry(signal, cfg)

    def blocks():  # each chunk's feature rows, in buffers the next chunk reuses
        rows = min(MEL_BLOCK, num_frames)
        block = np.zeros((min(FRAME_BLOCK, num_frames), n_fft))  # padding zeroed once, per call
        power = np.empty((rows, n_fft // 2 + 1))
        logmel = np.empty((rows, cfg.n_mels))
        for lo in range(0, num_frames, MEL_BLOCK):
            hi = min(lo + MEL_BLOCK, num_frames)
            for first in range(lo, hi, FRAME_BLOCK):
                last = min(first + FRAME_BLOCK, hi)
                power_spectrum(frame_and_window(signal, cfg, first, last, out=block), out=power[first - lo : last - lo])
            features = mel_energies(power[: hi - lo], cfg, signal.sample_rate, out=logmel[: hi - lo])
            if cfg.feature == "mfcc":
                features = mfcc_from_logmel(features, cfg.effective_n_coeffs())
            yield features.data

    return FeatureRows(num_frames, cfg.num_channels, cfg.frame_shift_ms, cfg.feature, blocks())


def extract(signal: PcmSignal, cfg: DspConfig) -> FeatureMatrix:
    """`extract_rows(signal, cfg).collect()`: one float64 T x channels matrix, with the same bytes."""
    return extract_rows(signal, cfg).collect()
