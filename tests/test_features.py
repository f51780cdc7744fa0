"""WAV decoding and the DSP front end."""

from __future__ import annotations

import math
import struct
import tracemalloc

import numpy as np
import pytest

from specmask.errors import ConfigError, EmptyInputError, FormatError, UnsupportedFormatError
from specmask.features import (
    DSP_PRESETS,
    FRAME_BLOCK,
    MEL_BLOCK,
    DspConfig,
    FeatureMatrix,
    PcmSignal,
    dct_matrix,
    extract,
    extract_rows,
    frame_and_window,
    hz_to_mel,
    mel_energies,
    mel_filterbank,
    mel_to_hz,
    mfcc_from_logmel,
    power_spectrum,
    pre_emphasize,
    read_wav,
)
from specmask.pipeline import RunConfig, run_pipeline
from specmask.spfx import write_spfx

from conftest import write_wav, write_wav_int16


def build_wav_bytes(fmt_code=1, channels=1, rate=16000, bits=16, data=b"\x00\x00") -> bytes:
    """Hand-assembled RIFF/WAVE bytes, independent of any writer library."""
    block_align = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * block_align, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


# ---------------------------------------------------------------- read_wav


def test_read_wav_zero_second(tmp_path):
    path = tmp_path / "zeros.wav"
    write_wav_int16(path, [0] * 16000, 16000)
    signal = read_wav(path)
    assert signal.sample_rate == 16000
    assert signal.samples.shape == (16000,)
    assert np.all(signal.samples == 0.0)


def test_read_wav_max_amplitude(tmp_path):
    path = tmp_path / "max.wav"
    write_wav_int16(path, [32767], 16000)
    signal = read_wav(path)
    assert signal.samples.dtype == np.float32
    assert signal.samples.tolist() == [32767 / 32768]


def test_read_wav_hand_built_fixture(tmp_path):
    # eight samples written as explicit little-endian int16 bytes
    values = [0, 1, -1, 32767, -32768, 256, -256, 12345]
    data = b"".join(struct.pack("<h", v) for v in values)
    path = tmp_path / "fixture.wav"
    path.write_bytes(build_wav_bytes(data=data))
    signal = read_wav(path)
    assert signal.sample_rate == 16000
    # float32, and each value is the exact int16 * 2**-15
    assert signal.samples.dtype == np.float32
    assert signal.samples.tolist() == [v / 32768 for v in values]


def test_read_wav_agrees_with_stdlib_writer(tmp_path):
    values = [100, -200, 300, -400, 500]
    path = tmp_path / "cross.wav"
    write_wav_int16(path, values, 8000)
    signal = read_wav(path)
    assert signal.sample_rate == 8000
    assert signal.samples.dtype == np.float32
    assert signal.samples.tolist() == [v / 32768 for v in values]


def test_read_wav_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNK" + bytes(40))
    with pytest.raises(FormatError, match="offset 0"):
        read_wav(path)


def test_read_wav_rejects_non_wave_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"AVI ")
    with pytest.raises(FormatError, match="WAVE"):
        read_wav(path)


def test_read_wav_rejects_truncated(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(b"RIFF\x04")
    with pytest.raises(FormatError):
        read_wav(path)


def test_read_wav_rejects_missing_chunks(tmp_path):
    path = tmp_path / "nofmt.wav"
    body = b"WAVE" + b"data" + struct.pack("<I", 2) + b"\x00\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FormatError, match="fmt"):
        read_wav(path)
    path2 = tmp_path / "nodata.wav"
    fmt_chunk = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body2 = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    path2.write_bytes(b"RIFF" + struct.pack("<I", len(body2)) + body2)
    with pytest.raises(FormatError, match="data"):
        read_wav(path2)


def test_read_wav_unsupported_encodings_name_the_field(tmp_path):
    cases = [
        (dict(fmt_code=3), "audio_format"),
        (dict(channels=2), "channels"),
        (dict(bits=8), "bits_per_sample"),
    ]
    for overrides, field in cases:
        path = tmp_path / f"{field}.wav"
        path.write_bytes(build_wav_bytes(**overrides))
        with pytest.raises(UnsupportedFormatError, match=field):
            read_wav(path)


def test_read_wav_stereo_from_stdlib_writer(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(bytes(8))
    with pytest.raises(UnsupportedFormatError, match="channels=2"):
        read_wav(path)


def test_read_wav_odd_data_length(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(build_wav_bytes(data=b"\x00\x00\x00"))
    with pytest.raises(FormatError, match="multiple of 2"):
        read_wav(path)


def test_pcm_signal_validation():
    with pytest.raises(ValueError):
        PcmSignal(samples=np.array([]), sample_rate=16000)
    for dtype in (np.float64, np.float32):
        with pytest.raises(ValueError, match="finite"):
            PcmSignal(samples=np.array([0.0, np.nan], dtype=dtype), sample_rate=16000)
    with pytest.raises(ValueError):
        PcmSignal(samples=np.array([0.0]), sample_rate=0)


@pytest.mark.parametrize(
    "samples, dtype",
    [
        (np.array([0.5, -0.25], dtype=np.float32), np.float32),
        (np.array([0.5, -0.25]), np.float64),
        (np.array([1, -2], dtype=np.int16), np.float64),
        ([1, -2], np.float64),
    ],
    ids=["float32", "float64", "int16", "list"],
)
def test_pcm_signal_keeps_float32_and_widens_the_rest(samples, dtype):
    signal = PcmSignal(samples=samples, sample_rate=16000)
    assert signal.samples.dtype == dtype
    assert signal.samples.tolist() == list(samples)
    if isinstance(samples, np.ndarray) and samples.dtype == dtype:
        assert signal.samples is samples  # kept, not copied


@pytest.mark.parametrize(
    "data, dtype",
    [
        (np.array([[0.5, -0.25]], dtype=np.float32), np.float32),
        (np.array([[0.5, -0.25]]), np.float64),
        (np.array([[0.5, -0.25]], dtype=np.float16), np.float64),
        (np.array([[1, -2]], dtype=np.int16), np.float64),
        ([[1, -2]], np.float64),
    ],
    ids=["float32", "float64", "float16", "int16", "list"],
)
def test_feature_matrix_keeps_float32_and_widens_the_rest(data, dtype):
    features = FeatureMatrix(data=data, frame_shift_ms=10.0, kind="mfcc")
    assert features.data.dtype == dtype
    assert features.data.tolist() == np.asarray(data).tolist()
    if isinstance(data, np.ndarray) and data.dtype == dtype:
        assert features.data is data  # kept, not copied


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feature_matrix_refuses_a_nan_in_either_dtype(dtype):
    with pytest.raises(ValueError, match="feature data must be finite"):
        FeatureMatrix(data=np.array([[0.0, np.nan]], dtype=dtype), frame_shift_ms=10.0, kind="mfcc")


# ------------------------------------------------- pre-emphasis and framing


def test_pre_emphasis_constant_signal():
    out = pre_emphasize(np.ones(10), 0.97)
    assert out[0] == 1.0
    assert np.allclose(out[1:], 0.03)


def test_pre_emphasis_zero_coeff_is_identity():
    x = np.arange(5, dtype=float)
    assert np.array_equal(pre_emphasize(x, 0.0), x)


def test_frame_count_arithmetic():
    cfg = DspConfig()
    signal = PcmSignal(samples=np.ones(16000), sample_rate=16000)
    frames = frame_and_window(signal, cfg)
    # floor((16000 - 400) / 160) + 1
    assert frames.shape[0] == 98
    assert frames.shape[1] == 512  # next power of two above 400


def test_exactly_one_frame():
    cfg = DspConfig(n_fft=512)
    signal = PcmSignal(samples=np.ones(400), sample_rate=16000)
    frames = frame_and_window(signal, cfg)
    assert frames.shape == (1, 512)


def test_zero_signal_gives_zero_frames():
    cfg = DspConfig()
    signal = PcmSignal(samples=np.zeros(1000), sample_rate=16000)
    assert np.all(frame_and_window(signal, cfg) == 0.0)


def test_signal_shorter_than_frame():
    cfg = DspConfig()
    signal = PcmSignal(samples=np.ones(399), sample_rate=16000)
    with pytest.raises(EmptyInputError):
        frame_and_window(signal, cfg)


@pytest.mark.parametrize(
    "rate, overrides",
    [(40, {}), (16000, {"frame_shift_ms": 0.01}), (16000, {"frame_len_ms": 0.01})],
    ids=["40Hz-step-0", "shift-0.01ms", "length-0.01ms"],
)
def test_frame_below_one_sample_is_a_config_error(rate, overrides):
    # 10 ms at 40 Hz rounds to a 0-sample step, which used to divide by zero
    cfg = DspConfig(**overrides)
    signal = PcmSignal(samples=np.sin(np.arange(2 * rate) / 3.0), sample_rate=rate)
    for front_end in (frame_and_window, extract):
        with pytest.raises(ConfigError, match=f"at {rate} Hz: .* at least one sample"):
            front_end(signal, cfg)


def test_hamming_window_values_applied():
    # feed all-ones with no pre-emphasis on the first frame: frame == window
    cfg = DspConfig(pre_emphasis=0.0, frame_len_ms=1.0, frame_shift_ms=1.0, n_fft=16)
    signal = PcmSignal(samples=np.ones(32), sample_rate=16000)
    frames = frame_and_window(signal, cfg)
    n = 16
    expected = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1))
    assert np.allclose(frames[0], expected, atol=1e-12)


def test_frames_zero_padded_to_n_fft():
    cfg = DspConfig(pre_emphasis=0.0, n_fft=1024)
    signal = PcmSignal(samples=np.ones(800), sample_rate=16000)
    frames = frame_and_window(signal, cfg)
    assert frames.shape[1] == 1024
    assert np.all(frames[:, 400:] == 0.0)


def test_n_fft_smaller_than_frame_rejected():
    with pytest.raises(ConfigError, match="smaller than the frame"):
        DspConfig(n_fft=256).fft_size(16000)


# ------------------------------------------------------------ power spectrum


def naive_dft_power(frame: np.ndarray) -> np.ndarray:
    """Direct O(n^2) one-sided DFT power, the independent oracle."""
    n = frame.shape[0]
    bins = n // 2 + 1
    out = np.zeros(bins)
    for k in range(bins):
        re = sum(frame[t] * np.cos(-2 * np.pi * k * t / n) for t in range(n))
        im = sum(frame[t] * np.sin(-2 * np.pi * k * t / n) for t in range(n))
        out[k] = re * re + im * im
    return out


def test_power_spectrum_zero_frame():
    assert np.all(power_spectrum(np.zeros((3, 64))) == 0.0)


def test_power_spectrum_cosine_at_bin():
    n_fft = 128
    k0 = 16
    t = np.arange(n_fft)
    frame = np.cos(2 * np.pi * k0 * t / n_fft)
    power = power_spectrum(frame[None, :])[0]
    peak = (n_fft / 2) ** 2
    assert abs(power[k0] - peak) / peak < 1e-6
    others = np.delete(power, k0)
    assert np.all(others / peak <= 1e-6)


def test_power_spectrum_matches_naive_dft():
    rng = np.random.default_rng(0)
    frame = rng.normal(size=64)
    power = power_spectrum(frame[None, :])[0]
    oracle = naive_dft_power(frame)
    assert np.allclose(power, oracle, rtol=1e-9, atol=1e-9)


def test_parseval_identity():
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(10, 256))
    power = power_spectrum(frames)
    n = 256
    for i in range(10):
        time_energy = np.sum(frames[i] ** 2)
        freq_energy = (power[i, 0] + power[i, n // 2] + 2 * power[i, 1 : n // 2].sum()) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-9


def test_power_spectrum_rejects_nonfinite():
    frames = np.zeros((1, 8))
    frames[0, 0] = np.inf
    with pytest.raises(ValueError):
        power_spectrum(frames)
    with pytest.raises(ValueError):
        power_spectrum(frames, out=np.empty((1, 5)))


def test_power_spectrum_fills_and_returns_out():
    frames = np.random.default_rng(2).normal(size=(6, 64))
    buf = np.full((6, 33), np.nan)
    assert power_spectrum(frames, out=buf) is buf
    assert buf.tobytes() == power_spectrum(frames).tobytes()


# -------------------------------------------------------------- mel and DCT


def test_mel_scale_round_trip():
    hz = np.array([0.0, 100.0, 700.0, 4000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(hz)), hz, atol=1e-9)
    assert hz_to_mel(0.0) == 0.0


def test_filterbank_shapes_and_weights():
    bank = mel_filterbank(40, 512, 16000, 0.0, 8000.0)
    assert bank.shape == (40, 257)
    assert np.all(bank >= 0.0)
    assert np.all(bank.sum(axis=1) > 0.0)


def test_filterbank_bad_range():
    with pytest.raises(ConfigError):
        mel_filterbank(10, 512, 16000, 4000.0, 1000.0)
    with pytest.raises(ConfigError):
        mel_filterbank(10, 512, 16000, 0.0, 9000.0)  # above Nyquist


def test_filterbank_bin_collision():
    with pytest.raises(ConfigError, match="distinct"):
        mel_filterbank(100, 128, 16000, 0.0, 8000.0)


def test_sinusoid_at_filter_center_wins_its_channel():
    rate = 16000
    n_mels = 10
    cfg = DspConfig(pre_emphasis=0.0, n_fft=1024, n_mels=n_mels)
    n_fft = 1024
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2), n_mels + 2)
    bin_points = np.floor((n_fft + 1) * mel_to_hz(mel_points) / rate).astype(int)
    for j in range(n_mels):
        center_hz = bin_points[j + 1] * rate / n_fft  # exact bin frequency
        t = np.arange(8000) / rate
        signal = PcmSignal(samples=0.9 * np.sin(2 * np.pi * center_hz * t), sample_rate=rate)
        frames = frame_and_window(signal, cfg)
        logmel = mel_energies(power_spectrum(frames), cfg, rate)
        assert int(np.argmax(logmel.data[0])) == j


def test_zero_spectrum_hits_log_floor():
    cfg = DspConfig()
    logmel = mel_energies(np.zeros((4, 257)), cfg, 16000)
    assert np.all(logmel.data == np.log(1e-10))
    assert logmel.kind == "log_mel"


def test_mel_energies_writes_into_out():
    cfg, rate = DSP_PRESETS["iwslt-like"], 16000
    power = power_spectrum(frame_and_window(noise_signal(rate, rate), cfg))
    expected = mel_energies(power, cfg, rate).data
    buf = np.full((power.shape[0], cfg.n_mels), np.nan)
    logmel = mel_energies(power, cfg, rate, out=buf)
    assert logmel.data is buf
    assert buf.tobytes() == expected.tobytes()
    # a row range of a larger matrix, as extract passes per chunk
    whole = np.full((power.shape[0] + 5, cfg.n_mels), np.nan)
    logmel = mel_energies(power, cfg, rate, out=whole[2:-3])
    assert logmel.data.base is whole
    assert whole[2:-3].tobytes() == expected.tobytes()
    assert np.isnan(whole[:2]).all() and np.isnan(whole[-3:]).all()


def test_dct_orthonormality():
    for n in (4, 40, 128):
        g = dct_matrix(n)
        assert np.max(np.abs(g @ g.T - np.eye(n))) < 1e-10


def naive_dct_row(row: np.ndarray) -> np.ndarray:
    n = row.shape[0]
    out = np.zeros(n)
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * sum(row[m] * np.cos(np.pi * (2 * m + 1) * k / (2 * n)) for m in range(n))
    return out


def test_mfcc_constant_row():
    c = 2.5
    nu = 16
    logmel = FeatureMatrix(data=np.full((3, nu), c), frame_shift_ms=10.0, kind="log_mel")
    coeffs = mfcc_from_logmel(logmel, nu)
    assert np.allclose(coeffs.data[:, 0], c * np.sqrt(nu), atol=1e-9)
    assert np.allclose(coeffs.data[:, 1:], 0.0, atol=1e-9)
    assert coeffs.kind == "mfcc"


def test_mfcc_inverse_recovers_input():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(5, 12))
    logmel = FeatureMatrix(data=data, frame_shift_ms=10.0, kind="log_mel")
    coeffs = mfcc_from_logmel(logmel, 12)
    recovered = coeffs.data @ dct_matrix(12)
    assert np.allclose(recovered, data, atol=1e-9)


def test_mfcc_matches_naive_oracle():
    rng = np.random.default_rng(3)
    row = rng.normal(size=8)
    logmel = FeatureMatrix(data=row[None, :], frame_shift_ms=10.0, kind="log_mel")
    coeffs = mfcc_from_logmel(logmel, 8)
    assert np.allclose(coeffs.data[0], naive_dct_row(row), atol=1e-12)


def test_mfcc_matches_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(4)
    data = rng.normal(size=(6, 20))
    logmel = FeatureMatrix(data=data, frame_shift_ms=10.0, kind="log_mel")
    coeffs = mfcc_from_logmel(logmel, 20)
    oracle = scipy_fft.dct(data, type=2, norm="ortho", axis=1)
    assert np.allclose(coeffs.data, oracle, atol=1e-10)


def test_mfcc_too_many_coeffs():
    logmel = FeatureMatrix(data=np.zeros((2, 8)), frame_shift_ms=10.0, kind="log_mel")
    with pytest.raises(ConfigError):
        mfcc_from_logmel(logmel, 9)


def test_mfcc_requires_log_mel_kind():
    m = FeatureMatrix(data=np.zeros((2, 8)), frame_shift_ms=10.0, kind="mfcc")
    with pytest.raises(ValueError, match="log_mel"):
        mfcc_from_logmel(m, 4)


# -------------------------------------------------------------------- extract


def test_extract_zero_signal():
    cfg = DspConfig()
    signal = PcmSignal(samples=np.zeros(16000), sample_rate=16000)
    features = extract(signal, cfg)
    assert features.data.shape == (98, 40)
    assert np.all(features.data == np.log(1e-10))


def test_extract_is_deterministic(tone_wav):
    cfg = DSP_PRESETS["librispeech-like"]
    a = extract(read_wav(tone_wav), cfg)
    b = extract(read_wav(tone_wav), cfg)
    assert a.data.tobytes() == b.data.tobytes()


def test_extract_mfcc_shape(tone_wav):
    cfg = DSP_PRESETS["iwslt-like"]
    features = extract(read_wav(tone_wav), cfg)
    assert features.kind == "mfcc"
    assert features.num_channels == 80


def test_presets_are_well_formed():
    libri = DSP_PRESETS["librispeech-like"]
    assert (libri.n_mels, libri.feature) == (40, "log_mel")
    iwslt = DSP_PRESETS["iwslt-like"]
    assert (iwslt.n_mels, iwslt.effective_n_coeffs(), iwslt.feature) == (80, 80, "mfcc")


# ----------------------------------------- bit identity with the plain route


def reference_frames(signal: PcmSignal, cfg: DspConfig) -> np.ndarray:
    """Pre-emphasis, fancy-index gather, window product and np.pad: the plain framing route."""
    rate = signal.sample_rate
    x = signal.samples
    if cfg.pre_emphasis != 0.0:
        x = np.concatenate(([x[0]], x[1:] - cfg.pre_emphasis * x[:-1]))
    frame_len, step, n_fft = cfg.frame_length(rate), cfg.frame_step(rate), cfg.fft_size(rate)
    num_frames = (x.size - frame_len) // step + 1
    idx = np.arange(frame_len)[None, :] + step * np.arange(num_frames)[:, None]
    frames = x[idx] * np.hamming(frame_len)
    return np.pad(frames, ((0, 0), (0, n_fft - frame_len)))


def chunked_product(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix as one product per MEL_BLOCK rows from row 0, as extract_rows's chunks run it."""
    return np.concatenate([rows[lo : lo + MEL_BLOCK] @ matrix for lo in range(0, len(rows), MEL_BLOCK)])


def reference_extract(signal: PcmSignal, cfg: DspConfig) -> np.ndarray:
    """The front end rebuilt from reference_frames and freshly built public constants."""
    rate = signal.sample_rate
    power = power_spectrum(reference_frames(signal, cfg))
    bank = mel_filterbank(cfg.n_mels, cfg.fft_size(rate), rate, cfg.fmin_hz, cfg.effective_fmax(rate))
    logmel = np.log(np.maximum(chunked_product(power, bank.T), cfg.log_floor))
    if cfg.feature == "mfcc":
        return chunked_product(logmel, dct_matrix(cfg.n_mels)[: cfg.effective_n_coeffs()].T)
    return logmel


def noise_signal(num_samples: int, rate: int, seed: int = 11) -> PcmSignal:
    rng = np.random.default_rng(seed)
    return PcmSignal(samples=rng.uniform(-0.6, 0.6, size=num_samples), sample_rate=rate)


_BIT_CASES = {
    "librispeech-like": (DSP_PRESETS["librispeech-like"], 16000),
    "iwslt-like": (DSP_PRESETS["iwslt-like"], 16000),
    "no-pre-emphasis": (DspConfig(pre_emphasis=0.0), 16000),
    "nfft2048-band-mfcc13": (DspConfig(n_fft=2048, fmin_hz=100.0, fmax_hz=7000.0, n_coeffs=13, feature="mfcc"), 16000),
    "8khz": (DspConfig(n_mels=23), 8000),
    "22khz-mfcc": (DspConfig(feature="mfcc", n_coeffs=20), 22050),
    # one band's mel product is numpy's one-column product
    "one-band": (DspConfig(n_mels=1), 16000),
    "two-band": (DspConfig(n_mels=2), 16000),
    "four-band-mfcc": (DspConfig(n_mels=4, feature="mfcc"), 16000),
}


@pytest.mark.parametrize("case", sorted(_BIT_CASES))
@pytest.mark.parametrize(
    "length",
    ["one-frame", "one-frame+1", "ragged", "block-1", "block", "block+1", "2block+1", "30s", "silent-frames"]
    + ["mel-1", "mel", "mel+1", "2mel-1", "2mel", "2mel+1", "3mel+7", "5mel+3"],
)
def test_front_end_is_bit_identical_to_the_plain_route(case, length):
    cfg, rate = _BIT_CASES[case]
    frame_len, step = cfg.frame_length(rate), cfg.frame_step(rate)
    samples = noise_signal(bit_case_samples(cfg, rate, length), rate).samples
    if length == "silent-frames":
        # frames 11..15 pre-emphasize to zeros, so their mel energies are
        # raised to log_floor in place before the log
        samples[10 * step : 15 * step + frame_len] = 0.0
    signal = PcmSignal(samples=samples, sample_rate=rate)
    frames = frame_and_window(signal, cfg)
    expected_frames = reference_frames(signal, cfg)
    assert frames.shape == expected_frames.shape
    assert frames.tobytes() == expected_frames.tobytes()
    if length == "silent-frames":
        assert not np.any(power_spectrum(expected_frames)[11:16])
    features = extract(signal, cfg)
    expected = reference_extract(signal, cfg)
    assert features.data.shape == expected.shape
    assert features.data.tobytes() == expected.tobytes()
    # the streamed rows, taken as the pipeline takes them, are the same float64 bytes
    rows = extract_rows(signal, cfg)
    assert (rows.num_frames, rows.num_channels, rows.kind) == (*expected.shape, cfg.feature)
    streamed = np.concatenate([block.copy() for block in rows.blocks])
    assert streamed.dtype == np.float64 and streamed.tobytes() == expected.tobytes()


@pytest.mark.parametrize("preset", ["iwslt-like", "librispeech-like"])
@pytest.mark.parametrize("length", ["mel-1", "mel", "mel+1", "2mel-1", "2mel", "3mel+7"])
def test_read_wav_features_are_those_of_the_widened_samples(tmp_path, preset, length):
    # read_wav's float32 samples are widened, exactly, block by block in
    # pre-emphasis, so the bytes are those of the float64 decoding
    cfg, rate = _BIT_CASES[preset]
    path = tmp_path / "noise.wav"
    write_wav(path, noise_signal(bit_case_samples(cfg, rate, length), rate).samples, rate)
    signal = read_wav(path)
    widened = PcmSignal(samples=signal.samples.astype(np.float64), sample_rate=rate)
    assert signal.samples.dtype == np.float32 and widened.samples.dtype == np.float64
    assert extract(signal, cfg).data.tobytes() == extract(widened, cfg).data.tobytes()


def write_wav_data_later(path, samples: np.ndarray, rate: int) -> None:
    """A stdlib-written WAV with an odd-sized chunk and its pad byte put between fmt and data."""
    write_wav(path, samples, rate)
    raw = path.read_bytes()  # RIFF header, then the 24-byte fmt chunk, then data
    body = b"WAVE" + raw[12:36] + b"LIST" + struct.pack("<I", 3) + b"abc\x00" + raw[36:]
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize("layout", ["data-after-fmt", "data-later"])
@pytest.mark.parametrize("case", sorted(_BIT_CASES))
@pytest.mark.parametrize(
    "length",
    ["one-frame", "one-frame+1", "ragged", "block-1", "block", "block+1", "2block+1", "30s", "silent-frames"]
    + ["mel-1", "mel", "mel+1", "2mel-1", "2mel", "2mel+1", "3mel+7", "5mel+3"],
)
def test_the_pipelines_streamed_records_have_the_bytes_of_extract(tmp_path, case, length, layout):
    # the pipeline reads a WAV record's samples a window at a time and writes
    # its rows a mel chunk at a time; CI runs this file unpinned and with BLAS
    # pinned to one thread
    cfg, rate = _BIT_CASES[case]
    frame_len, step = cfg.frame_length(rate), cfg.frame_step(rate)
    samples = noise_signal(bit_case_samples(cfg, rate, length), rate).samples
    if length == "silent-frames":
        samples[10 * step : 15 * step + frame_len] = 0.0
    path = tmp_path / "in.wav"
    (write_wav if layout == "data-after-fmt" else write_wav_data_later)(path, samples, rate)
    write_spfx(extract(read_wav(path), cfg), tmp_path / "whole.spfx")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("in\tin.wav\n", encoding="utf-8")
    summary = run_pipeline(RunConfig(manifest_path=str(manifest), output_dir=str(tmp_path / "out"), dsp=cfg, mode="eval"))
    assert summary.failures == []
    assert (tmp_path / "out" / "in.spfx").read_bytes() == (tmp_path / "whole.spfx").read_bytes()


@pytest.mark.parametrize("layout", ["data-after-fmt", "data-later"])
def test_a_streamed_signal_reads_the_spans_and_frames_of_a_read_one(tmp_path, layout):
    cfg, rate = DSP_PRESETS["librispeech-like"], 16000
    path = tmp_path / "in.wav"
    size = 2 * rate + 7
    (write_wav if layout == "data-after-fmt" else write_wav_data_later)(path, noise_signal(size, rate).samples, rate)
    read = read_wav(path)
    with open(path, "rb") as file:
        streamed = read_wav(path, file)
        assert (streamed.samples.size, streamed.sample_rate) == (size, rate)
        # from the start, across 2**15, and at the end
        for lo, hi in [(0, 1), (0, 400), (1, 2), (5000, 6001), (32760, 32800), (size - 3, size), (0, size)]:
            assert streamed.samples[lo:hi].tobytes() == read.samples[lo:hi].tobytes()
        # a block that starts at frame 0, and later ones that pre-emphasize from the sample before them
        for first, last in [(0, FRAME_BLOCK), (1, 2), (37, 37 + FRAME_BLOCK)]:
            expected = frame_and_window(read, cfg, first, last)
            assert frame_and_window(streamed, cfg, first, last).tobytes() == expected.tobytes()
        assert extract(streamed, cfg).data.tobytes() == extract(read, cfg).data.tobytes()


def test_streamed_samples_slice_as_the_array_does(tmp_path):
    rate = 16000
    path = tmp_path / "in.wav"
    write_wav(path, noise_signal(rate, rate).samples, rate)
    read = read_wav(path).samples
    with open(path, "rb") as file:
        streamed = read_wav(path, file).samples
        # empty and reversed slices are empty, wherever they start
        for index in [slice(5, 3), slice(5, 5), slice(-3, -5), slice(rate, None), slice(None, 0)]:
            assert read[index].size == 0
            assert (streamed[index].dtype, streamed[index].size) == (np.float32, 0)
        assert streamed[-5:].tobytes() == read[-5:].tobytes()
        for index in [slice(0, 10, 2), slice(None, None, -1), slice(5, 3, -1)]:
            with pytest.raises(ValueError, match="step of 1"):
                streamed[index]


def test_collected_front_end_rows_stay_float64():
    cfg, rate = DSP_PRESETS["librispeech-like"], 16000
    signal = noise_signal(bit_case_samples(cfg, rate, "3mel+7"), rate)
    collected = extract_rows(signal, cfg).collect()
    assert collected.num_frames == 3 * MEL_BLOCK + 7
    assert collected.data.dtype == np.float64
    extracted = extract(signal, cfg)
    assert extracted.data.dtype == np.float64
    assert extracted.data.tobytes() == collected.data.tobytes()
    assert (extracted.frame_shift_ms, extracted.kind) == (collected.frame_shift_ms, collected.kind)


def bit_case_samples(cfg: DspConfig, rate: int, length: str) -> int:
    """Samples in a signal of the named length: frame counts on each side of extract's block and chunk edges."""
    frame_len, step = cfg.frame_length(rate), cfg.frame_step(rate)
    return {
        "one-frame": frame_len,
        "one-frame+1": frame_len + 1,
        "ragged": frame_len + 7 * step + step // 3,  # 8 frames plus a dropped tail
        # extract's frame blocks: one short of a block, one, one over, two over
        "block-1": frame_len + (FRAME_BLOCK - 2) * step,
        "block": frame_len + (FRAME_BLOCK - 1) * step,
        "block+1": frame_len + FRAME_BLOCK * step,
        "2block+1": frame_len + 2 * FRAME_BLOCK * step,
        "30s": 30 * rate,
        "silent-frames": frame_len + 39 * step,
        # extract_rows's chunks of MEL_BLOCK frames from frame 0, the last shorter
        "mel-1": frame_len + (MEL_BLOCK - 2) * step,
        "mel": frame_len + (MEL_BLOCK - 1) * step,
        "mel+1": frame_len + MEL_BLOCK * step,
        "2mel-1": frame_len + (2 * MEL_BLOCK - 2) * step,
        "2mel": frame_len + (2 * MEL_BLOCK - 1) * step,
        "2mel+1": frame_len + 2 * MEL_BLOCK * step,
        "3mel+7": frame_len + (3 * MEL_BLOCK + 6) * step,
        "5mel+3": frame_len + (5 * MEL_BLOCK + 2) * step,
    }[length]


@pytest.mark.parametrize("case", sorted(_BIT_CASES))
def test_frame_ranges_are_rows_of_the_whole_matrix(case):
    cfg, rate = _BIT_CASES[case]
    signal = noise_signal(cfg.frame_length(rate) + 150 * cfg.frame_step(rate) + 3, rate)
    whole = frame_and_window(signal, cfg)
    num_frames, n_fft = whole.shape
    buffer = np.zeros((2 * FRAME_BLOCK + 1, n_fft))
    spans = [(0, 1), (0, FRAME_BLOCK), (1, 2), (37, 37 + FRAME_BLOCK), (num_frames - 5, num_frames)]
    # the window rows are taken FRAME_BLOCK at a time: spans on each side of one and two blocks
    for count in (1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 1):
        spans += [(0, count), (5, 5 + count), (num_frames - count, num_frames)]
    for first, last in spans:
        assert frame_and_window(signal, cfg, first, last).tobytes() == whole[first:last].tobytes()
        frames = frame_and_window(signal, cfg, first, last, out=buffer)
        assert frames.base is buffer and frames.shape == (last - first, n_fft)
        assert frames.tobytes() == whole[first:last].tobytes()
    # out's padding columns are left as they are
    frame_len = cfg.frame_length(rate)
    buffer[:, frame_len:] = 7.0
    frames = frame_and_window(signal, cfg, 2, 4, out=buffer)
    assert frames[:, :frame_len].tobytes() == whole[2:4, :frame_len].tobytes()
    assert np.all(frames[:, frame_len:] == 7.0)
    for first, last in [(0, 0), (3, 2), (-1, 2), (0, num_frames + 1)]:
        with pytest.raises(ValueError, match="not within"):
            frame_and_window(signal, cfg, first, last)


def traced_extract_peak(signal: PcmSignal, cfg: DspConfig) -> int:
    """tracemalloc peak of one `extract` call, with the caller holding the signal."""
    extract(signal, cfg)  # the cached constants are built outside the measurement
    tracemalloc.start()
    try:
        extract(signal, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_peaks_below_one_frame_matrix():
    # the whole (T, n_fft) frame matrix is never built: frames are windowed and
    # transformed FRAME_BLOCK at a time
    cfg, rate = DSP_PRESETS["iwslt-like"], 16000
    signal = noise_signal(30 * rate, rate)
    num_frames = (signal.samples.size - cfg.frame_length(rate)) // cfg.frame_step(rate) + 1
    assert traced_extract_peak(signal, cfg) < num_frames * cfg.fft_size(rate) * 8


@pytest.mark.parametrize("preset", ["iwslt-like", "librispeech-like"])
def test_extract_peaks_below_power_plus_two_feature_matrices(preset):
    # the whole power matrix is never built: features are made one chunk of
    # MEL_BLOCK frames at a time into one feature matrix, so at the peak the
    # chunk's power buffer, the frame block, the chunk's products and the
    # feature matrix are live, well under half of a 30 s power matrix
    cfg, rate = DSP_PRESETS[preset], 16000
    signal = noise_signal(30 * rate, rate)
    num_frames = (signal.samples.size - cfg.frame_length(rate)) // cfg.frame_step(rate) + 1
    power_bytes = num_frames * (cfg.fft_size(rate) // 2 + 1) * 8
    assert traced_extract_peak(signal, cfg) < power_bytes / 2


@pytest.mark.parametrize("preset", ["iwslt-like", "librispeech-like"])
def test_a_read_signal_adds_under_six_bytes_a_sample_to_the_peak(tmp_path, preset):
    # with no signal held by the caller, extract(read_wav(path)) peaks at the
    # front end's own peak plus the signal: 4 bytes a sample as float32, 8 as
    # a float64 decoding
    cfg, rate = DSP_PRESETS[preset], 16000
    path = tmp_path / "30s.wav"
    write_wav(path, noise_signal(30 * rate, rate).samples, rate)
    own = traced_extract_peak(read_wav(path), cfg)
    tracemalloc.start()
    try:
        extract(read_wav(path), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < own + 6 * 30 * rate


def test_pre_emphasis_is_bit_identical_to_the_plain_formula():
    x = noise_signal(1001, 16000).samples
    pcm = (x * 2**15).astype(np.int16)
    # other input is emphasized as if widened to float64 first; float64 input
    # at coeff 0 still comes back as a new array
    for samples in (x, x.astype(np.float32), pcm, pcm.tolist(), x.tolist()):
        wide = np.asarray(samples).astype(np.float64)
        for coeff in (0.97, 0.5, 0.0):
            expected = np.concatenate(([wide[0]], wide[1:] - coeff * wide[:-1])) if coeff else wide
            out = pre_emphasize(samples, coeff)
            assert out.dtype == np.float64 and not np.shares_memory(out, np.asarray(samples))
            assert out.tobytes() == expected.tobytes()
    assert pre_emphasize(np.array([0.25]), 0.97).tolist() == [0.25]


@pytest.mark.parametrize(
    "first, second",
    [
        (DspConfig(), DspConfig(fmax_hz=6000.0)),
        (DspConfig(), DspConfig(n_mels=24)),
        (DspConfig(feature="mfcc"), DspConfig(feature="mfcc", n_mels=24)),
        (DspConfig(fmin_hz=0.0), DspConfig(fmin_hz=300.0)),
        (DspConfig(), DspConfig(frame_len_ms=20.0)),
    ],
)
def test_cached_constants_follow_every_config_field(first, second):
    signal = noise_signal(16000, 16000)
    a = extract(signal, first)
    b = extract(signal, second)
    assert a.data.tobytes() == reference_extract(signal, first).tobytes()
    assert b.data.tobytes() == reference_extract(signal, second).tobytes()
    assert a.data.tobytes() != b.data.tobytes()
    # and back again, now that both configs have been seen
    assert extract(signal, first).data.tobytes() == a.data.tobytes()


def test_cached_constants_follow_the_sample_rate():
    cfg = DspConfig(n_mels=23, n_fft=512)
    for rate in (8000, 16000, 8000):
        signal = noise_signal(rate, rate)
        assert extract(signal, cfg).data.tobytes() == reference_extract(signal, cfg).tobytes()


def test_public_constants_are_fresh_and_writable():
    signal = noise_signal(16000, 16000)
    cfg = DspConfig(feature="mfcc")
    before = extract(signal, cfg).data.tobytes()
    banks = [mel_filterbank(40, 512, 16000, 0.0, 8000.0) for _ in range(2)]
    dcts = [dct_matrix(40) for _ in range(2)]
    for first, second in (banks, dcts):
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()
        first[...] = 0.0
        assert np.any(second != 0.0)
    # scribbling on the public copies leaves the front end alone
    assert extract(signal, cfg).data.tobytes() == before


def test_dsp_config_validation():
    with pytest.raises(ConfigError):
        DspConfig(pre_emphasis=1.0)
    with pytest.raises(ConfigError):
        DspConfig(n_fft=300)  # not a power of two
    with pytest.raises(ConfigError):
        DspConfig(n_coeffs=50, n_mels=40)
    with pytest.raises(ConfigError):
        DspConfig(feature="plp")
    with pytest.raises(ConfigError):
        DspConfig(log_floor=0.0)
    # an SPFX header stores the shift as float32
    with pytest.raises(ConfigError, match="frame_shift_ms must be at most the float32 maximum"):
        DspConfig(frame_shift_ms=1e39)
    assert DspConfig(frame_shift_ms=float(np.finfo(np.float32).max)).frame_shift_ms > 3e38


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["frame_len_ms", "frame_shift_ms", "log_floor", "fmin_hz", "fmax_hz"])
def test_dsp_config_rejects_a_non_finite_value(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        DspConfig(**{name: value})
