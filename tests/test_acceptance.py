"""Acceptance gate: the eleven release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every expected value here is either exact by construction or produced by an
independent oracle coded in this file or in the library's oracle module.
"""

from __future__ import annotations

import time

import numpy as np

from specmask.features import DspConfig, FeatureMatrix, dct_matrix, extract, frame_and_window, power_spectrum, read_wav
from specmask.manifest import Manifest, ManifestRecord, slice_manifest
from specmask.masking import POLICY_PRESETS, AugmentPolicy, augment
from specmask.pipeline import RunConfig, run_pipeline
from specmask.rng import RngState, derive_utterance_seed
from specmask.stats import accumulate_stats, exact_masked_mean, monte_carlo_masked_mean, standardize, verify_grid
from specmask.toy import (
    DEFAULT_DEMO_EPOCHS,
    DEFAULT_DEMO_LR,
    DEFAULT_DEMO_POLICY,
    ToyModel,
    default_params,
    forward_nll,
    generate_dataset,
    gradient,
    train,
)

from conftest import GOLDEN_DIR, build_corpus, figure_panels, tree_bytes


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {status}{suffix}")


def test_criterion_01_sampler_oracle_grid():
    started = time.perf_counter()
    rows = verify_grid(range(1, 13), range(0, 7), (1, 2), 1_000_000, seed=1)
    elapsed = time.perf_counter() - started
    passed = sum(row.passed for row in rows)
    ok = passed == len(rows) == 168 and elapsed < 60.0
    _report(1, "sampler-oracle grid, 3 stderr at 1e6 trials", ok, f"{passed}/{len(rows)} cells, {elapsed:.1f} s")
    assert passed == len(rows) == 168
    assert elapsed < 60.0


def test_criterion_02_exact_single_mask_value():
    exact = exact_masked_mean(4, 10)
    rng = RngState(derive_utterance_seed(2, "criterion2"))
    report = monte_carlo_masked_mean(4, 1, 10, 1_000_000, rng)
    mc_ok = abs(report.mc_mean - 1.8) <= 3.0 * report.mc_stderr
    ok = abs(exact - 1.8) < 1e-12 and mc_ok
    _report(2, "exact_masked_mean(4,10) = 1.8 + MC 3 sigma", ok, f"exact={exact}, mc={report.mc_mean:.6f}")
    assert abs(exact - 1.8) < 1e-12
    assert mc_ok


def test_criterion_03_identity_and_zero_only_edits():
    iterations = 10_000
    data_rng = np.random.default_rng(3)
    identity = AugmentPolicy(0, 0, 0, 0)
    ok = True
    for i in range(iterations):
        frames = int(data_rng.integers(1, 30))
        channels = int(data_rng.integers(1, 24))
        features = FeatureMatrix(data_rng.normal(size=(frames, channels)), 10.0, "log_mel")
        policy = AugmentPolicy(
            int(data_rng.integers(0, 7)),
            int(data_rng.integers(0, 4)),
            int(data_rng.integers(0, 9)),
            int(data_rng.integers(0, 4)),
        )
        mask_rng = RngState(derive_utterance_seed(3, f"prop:{i}"))

        same, _, _ = augment(features, identity, mask_rng)
        ok &= same.data.tobytes() == features.data.tobytes()

        masked, masks, _ = augment(features, policy, mask_rng)
        time_masks = [m for m in masks if m.axis == "time"]
        freq_masks = [m for m in masks if m.axis == "frequency"]
        ok &= len(time_masks) == min(policy.num_time_masks, frames)
        ok &= len(freq_masks) == min(policy.num_freq_masks, channels)
        ok &= len({m.start for m in time_masks}) == len(time_masks)
        ok &= len({m.start for m in freq_masks}) == len(freq_masks)

        changed = masked.data != features.data
        ok &= bool(np.all(masked.data[changed] == 0.0))
        time_cover = np.zeros(frames, dtype=bool)
        freq_cover = np.zeros(channels, dtype=bool)
        for m in time_masks:
            time_cover[m.start : m.start + m.length] = True
        for m in freq_masks:
            freq_cover[m.start : m.start + m.length] = True
        declared = time_cover[:, None] | freq_cover[None, :]
        ok &= not np.any(changed & ~declared)
        if not ok:
            break
    _report(3, "identity + zero-only-edit property suite", ok, f"{iterations} random matrices/policies")
    assert ok


def test_criterion_04_pipeline_determinism(tmp_path):
    manifest = build_corpus(tmp_path, 50)
    trees = {}
    for name, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        config = RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            policy=POLICY_PRESETS["libri-best"],
            seed=42,
            mode="train",
            num_workers=workers,
        )
        summary = run_pipeline(config)
        assert summary.failures == []
        trees[name] = tree_bytes(out)
    ok = trees["a"] == trees["b"] == trees["c"]
    _report(4, "byte-identical reruns incl. workers 1 vs 8", ok, "50-utterance manifest")
    assert ok


def test_criterion_05_standardization_moments():
    rng = np.random.default_rng(5)
    channels = 24
    offsets = rng.normal(size=channels) * 5.0
    scales = np.exp(rng.normal(size=channels))
    corpus = []
    for _ in range(100):
        data = rng.normal(size=(1000, channels)) * scales + offsets
        data[:, 7] = 3.25  # dead channel exercises the variance floor
        corpus.append(FeatureMatrix(data, 10.0, "log_mel"))
    stats = accumulate_stats(corpus)
    merged = accumulate_stats([standardize(m, stats) for m in corpus])
    live = stats.variance > 1e-8
    mean_err = float(np.max(np.abs(merged.mean[live])))
    var_err = float(np.max(np.abs(merged.variance[live] - 1.0)))
    ok = stats.count == 100_000 and mean_err < 1e-6 and var_err < 1e-6
    _report(5, "stats+standardize moments < 1e-6", ok, f"|mean|<={mean_err:.2e}, |var-1|<={var_err:.2e}")
    assert stats.count == 100_000
    assert mean_err < 1e-6
    assert var_err < 1e-6


def test_criterion_06_dsp_checks(tmp_path):
    rng = np.random.default_rng(6)
    from conftest import write_wav

    # Parseval per frame, 1e-9 relative
    wav = tmp_path / "noise.wav"
    write_wav(wav, 0.5 * rng.normal(size=8000).clip(-1, 1), 16000)
    signal = read_wav(wav)
    cfg = DspConfig()
    frames = frame_and_window(signal, cfg)
    power = power_spectrum(frames)
    n_fft = cfg.fft_size(signal.sample_rate)
    spectral = (power[:, 0] + power[:, -1] + 2.0 * power[:, 1:-1].sum(axis=1)) / n_fft
    temporal = (frames**2).sum(axis=1)
    parseval_err = float(np.max(np.abs(spectral - temporal) / np.maximum(np.abs(temporal), 1e-30)))

    # DCT orthonormality, 1e-10
    d = dct_matrix(40)
    dct_err = float(np.max(np.abs(d @ d.T - np.eye(40))))

    # sinusoid at an exact bin vs a direct O(n^2) DFT oracle, 1e-6 relative
    bin_index = 32
    t = np.arange(8000) / 16000.0
    write_wav(tmp_path / "tone.wav", 0.9 * np.sin(2 * np.pi * (bin_index * 16000 / n_fft) * t), 16000)
    tone_frames = frame_and_window(read_wav(tmp_path / "tone.wav"), cfg)
    frame = tone_frames[1]
    angles = -2j * np.pi * np.outer(np.arange(n_fft // 2 + 1), np.arange(n_fft)) / n_fft
    oracle = np.abs(np.exp(angles) @ frame) ** 2
    fft_power = power_spectrum(tone_frames[1:2])[0]
    peak = int(np.argmax(fft_power))
    sin_err = abs(fft_power[peak] - oracle[peak]) / oracle[peak]

    ok = parseval_err < 1e-9 and dct_err < 1e-10 and peak == bin_index and sin_err < 1e-6
    _report(6, "Parseval 1e-9, DCT 1e-10, bin peak 1e-6", ok,
            f"parseval={parseval_err:.2e}, dct={dct_err:.2e}, peak_bin={peak}, sin={sin_err:.2e}")
    assert parseval_err < 1e-9
    assert dct_err < 1e-10
    assert peak == bin_index
    assert sin_err < 1e-6


def test_criterion_07_policy_presets():
    expected = {
        "libri-best": (5, 1, 40, 2),
        "iwslt-best": (4, 1, 40, 2),
        "ld-like": (27, 2, 100, 2),
    }
    actual = {
        name: (
            POLICY_PRESETS[name].max_freq_width,
            POLICY_PRESETS[name].num_freq_masks,
            POLICY_PRESETS[name].max_time_width,
            POLICY_PRESETS[name].num_time_masks,
        )
        for name in expected
    }
    ok = actual == expected
    _report(7, "preset tuples", ok, ", ".join(f"{k}={v}" for k, v in actual.items()))
    assert actual == expected


def test_criterion_08_figure_panels_golden(tmp_path):
    panels = figure_panels(tmp_path)
    mismatches = [
        name for name, data in panels.items()
        if data != (GOLDEN_DIR / f"panel_{name}.pgm").read_bytes()
    ]
    ok = not mismatches and set(panels) == {"none", "time", "freq", "both"}
    _report(8, "four golden PGM panels", ok, "none/time/freq/both byte-identical")
    assert ok, mismatches


def test_criterion_09_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    k, channels, frames = 3, 4, 6
    model = ToyModel(0.5 * rng.normal(size=(k, channels)), 0.1 * rng.normal(size=k))
    batch = [
        (FeatureMatrix(rng.normal(size=(frames, channels)), 10.0, "log_mel"), i % k)
        for i in range(6)
    ]

    def batch_nll(m: ToyModel) -> float:
        return float(np.mean([forward_nll(m, f, y)[0] for f, y in batch]))

    dw, db = gradient(model, batch)
    step = 1e-5
    worst = 0.0
    for index in np.ndindex(*model.weights.shape):
        up = ToyModel(model.weights.copy(), model.bias.copy())
        up.weights[index] += step
        down = ToyModel(model.weights.copy(), model.bias.copy())
        down.weights[index] -= step
        numeric = (batch_nll(up) - batch_nll(down)) / (2 * step)
        worst = max(worst, abs(dw[index] - numeric) / max(abs(numeric), 1e-8))
    for j in range(k):
        up = ToyModel(model.weights.copy(), model.bias.copy())
        up.bias[j] += step
        down = ToyModel(model.weights.copy(), model.bias.copy())
        down.bias[j] -= step
        numeric = (batch_nll(up) - batch_nll(down)) / (2 * step)
        worst = max(worst, abs(db[j] - numeric) / max(abs(numeric), 1e-8))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 5.0
    _report(9, "analytic vs central-difference gradient", ok, f"max rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_10_overfitting_gap():
    started = time.perf_counter()
    wins = 0
    for seed in range(5):
        dataset = generate_dataset(default_params(), seed)
        masked = train(dataset, DEFAULT_DEMO_POLICY, DEFAULT_DEMO_EPOCHS, DEFAULT_DEMO_LR, seed)
        clean = train(dataset, POLICY_PRESETS["none"], DEFAULT_DEMO_EPOCHS, DEFAULT_DEMO_LR, seed)
        if masked.final_gap < clean.final_gap:
            wins += 1
    elapsed = time.perf_counter() - started
    ok = wins >= 4 and elapsed < 120.0
    _report(10, "masking shrinks train/dev gap", ok, f"{wins}/5 paired seeds, {elapsed:.1f} s")
    assert wins >= 4
    assert elapsed < 120.0


def test_criterion_11_slice_structure():
    from fractions import Fraction

    records = tuple(
        ManifestRecord(f"utt{i:06d}", f"utt{i:06d}.spfx") for i in range(94_500)
    )
    manifest = Manifest(records)
    fractions = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 1)]
    slices = slice_manifest(manifest, fractions, seed=6)
    sizes = [len(s) for s in slices]
    nested = all(
        slices[i].records == slices[i + 1].records[: sizes[i]] for i in range(3)
    )
    ok = sizes == [23_625, 47_250, 70_875, 94_500] and nested
    _report(11, "nested slice sizes 23625/47250/70875/94500", ok, f"sizes={sizes}, nested={nested}")
    assert sizes == [23_625, 47_250, 70_875, 94_500]
    assert nested
