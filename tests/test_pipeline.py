"""End-to-end pipeline determinism, eval-mode identity, and config parsing."""

from __future__ import annotations

import threading
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from specmask.cli import main
from specmask.errors import ConfigError, FormatError
from specmask.features import DSP_PRESETS, ROW_BLOCK, DspConfig
from specmask.manifest import ManifestRecord
from specmask.masking import POLICY_PRESETS, AugmentPolicy, mask_index, masks_from_text, sample_policy_masks
from specmask.pipeline import RunConfig, RunSummary, map_records, parse_dsp_config, run_pipeline
from specmask.rng import RngState, derive_utterance_seed
from specmask.spfx import read_spfx, write_stats_container
from specmask.stats import CorpusStats

from conftest import (
    build_corpus,
    build_spfx_corpus,
    golden_stats,
    tree_bytes,
    tree_digest,
    write_spfx_raw,
    write_wav,
    write_wav_int16,
)


def test_train_run_writes_features_and_sidecars(tmp_path):
    manifest = build_corpus(tmp_path, 4)
    config = RunConfig(
        manifest_path=str(manifest),
        output_dir=str(tmp_path / "out"),
        policy=POLICY_PRESETS["libri-best"],
        seed=7,
        mode="train",
    )
    summary = run_pipeline(config)
    assert summary.utterances_processed == 4
    assert summary.failures == []
    for i in range(4):
        features = read_spfx(tmp_path / "out" / f"utt{i:03d}.spfx")
        assert features.num_channels == 40
        masks = masks_from_text((tmp_path / "out" / f"utt{i:03d}.masks").read_text())
        assert sum(m.axis == "time" for m in masks) == 2
        assert sum(m.axis == "frequency" for m in masks) == 1
    assert summary.masks_drawn == 12


def test_same_config_same_bytes(tmp_path):
    manifest = build_corpus(tmp_path, 5)
    trees = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        config = RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            policy=POLICY_PRESETS["libri-best"],
            seed=99,
            mode="train",
        )
        run_pipeline(config)
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def test_worker_count_does_not_change_bytes(tmp_path):
    manifest = build_corpus(tmp_path, 6)
    trees = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        config = RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            policy=POLICY_PRESETS["iwslt-best"],
            seed=5,
            mode="train",
            num_workers=workers,
        )
        summary = run_pipeline(config)
        assert summary.failures == []
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def test_eval_mode_equals_policy_none_byte_for_byte(tmp_path):
    manifest = build_corpus(tmp_path, 3)
    out_eval = tmp_path / "eval"
    out_none = tmp_path / "none"
    run_pipeline(
        RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out_eval),
            policy=POLICY_PRESETS["ld-like"],  # must be ignored in eval mode
            seed=1,
            mode="eval",
        )
    )
    run_pipeline(
        RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out_none),
            policy=POLICY_PRESETS["none"],
            seed=1,
            mode="train",
        )
    )
    assert tree_bytes(out_eval) == tree_bytes(out_none)
    # sidecars exist and are empty in both trees
    for name, blob in tree_bytes(out_eval).items():
        if name.endswith(".masks"):
            assert blob == b""


def test_spfx_inputs_are_read_directly(tmp_path):
    manifest = build_corpus(tmp_path, 2)
    first_out = tmp_path / "extracted"
    run_pipeline(RunConfig(manifest_path=str(manifest), output_dir=str(first_out), mode="eval"))
    second_manifest = tmp_path / "extracted" / "manifest.tsv"
    second_manifest.write_text("utt000\tutt000.spfx\nutt001\tutt001.spfx\n", encoding="utf-8")
    out = tmp_path / "masked"
    summary = run_pipeline(
        RunConfig(
            manifest_path=str(second_manifest),
            output_dir=str(out),
            policy=POLICY_PRESETS["libri-best"],
            seed=3,
            mode="train",
        )
    )
    assert summary.failures == []
    features = read_spfx(out / "utt000.spfx")
    assert features.num_channels == 40


def test_stats_standardization_inside_pipeline(tmp_path):
    manifest = build_corpus(tmp_path, 2)
    stats = CorpusStats(mean=np.zeros(40), variance=np.ones(40), count=10)
    stats_path = tmp_path / "c.spfx-stats"
    write_stats_container(stats, stats_path)
    out = tmp_path / "std"
    run_pipeline(
        RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            seed=0,
            mode="eval",
            stats_path=str(stats_path),
        )
    )
    assert read_spfx(out / "utt000.spfx").kind == "standardized_log_mel"


def test_per_utterance_failures_collected(tmp_path):
    manifest = build_corpus(tmp_path, 2)
    text = manifest.read_text() + "missing\tnot-there.wav\n"
    manifest.write_text(text, encoding="utf-8")
    summary = run_pipeline(
        RunConfig(manifest_path=str(manifest), output_dir=str(tmp_path / "out"), mode="eval")
    )
    assert summary.utterances_processed == 2
    assert len(summary.failures) == 1
    assert summary.failures[0][0] == "missing"
    # the good utterances were still written
    assert (tmp_path / "out" / "utt000.spfx").exists()


@pytest.mark.parametrize("warning_policy", ["default", "error"])
def test_a_value_that_overflows_float32_fails_only_its_record(tmp_path, warning_policy):
    # 3e38 is a finite float32; standardized with variance 1e-9 it is about 9.5e42
    big = np.ones((4, 3))
    big[1, 2] = 3e38
    write_spfx_raw(tmp_path / "big.spfx", big, kind_code=1)
    write_spfx_raw(tmp_path / "fine.spfx", np.ones((4, 3)), kind_code=1)
    write_spfx_raw(tmp_path / "c.spfx-stats", [[0.0, 0.0, 0.0], [1.0, 1.0, 1e-9]], kind_code=255, frame_shift_ms=0.0)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("big\tbig.spfx\nfine\tfine.spfx\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter(warning_policy)
        summary = run_pipeline(
            RunConfig(
                manifest_path=str(manifest),
                output_dir=str(out),
                stats_path=str(tmp_path / "c.spfx-stats"),
            )
        )
    assert summary.utterances_processed == 1
    assert [record for record, _ in summary.failures] == ["big"]
    assert "row 1, column 2 is not finite as float32" in summary.failures[0][1]
    assert sorted(p.name for p in out.iterdir()) == ["fine.masks", "fine.spfx"]


def test_an_overflow_that_a_mask_covers_is_written_as_zero(tmp_path):
    # the record is standardized in float64 and rounded to float32 only after
    # masking, so 9.5e42 fails it exactly when the value is left unmasked
    big = np.ones((4, 3))
    big[1, 2] = 3e38
    write_spfx_raw(tmp_path / "big.spfx", big, kind_code=1)
    write_spfx_raw(tmp_path / "c.spfx-stats", [[0.0, 0.0, 0.0], [1.0, 1.0, 1e-9]], kind_code=255, frame_shift_ms=0.0)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("big\tbig.spfx\n", encoding="utf-8")
    outcomes = set()
    for seed in range(12):
        out = tmp_path / f"out{seed}"
        policy = POLICY_PRESETS["ld-like"]
        masks, _ = sample_policy_masks(policy, 4, 3, RngState(derive_utterance_seed(seed, "big")))
        covered = np.ones((4, 3))
        for mask in masks:
            covered[mask_index(mask, covered.shape)] = 0.0
        summary = run_pipeline(RunConfig(
            manifest_path=str(manifest), output_dir=str(out), policy=policy, seed=seed,
            stats_path=str(tmp_path / "c.spfx-stats"),
        ))
        if covered[1, 2] == 0.0:
            assert summary.failures == []
            assert read_spfx(out / "big.spfx").data[1, 2] == 0.0
        else:
            assert "row 1, column 2 is not finite as float32; nothing written" in summary.failures[0][1]
            assert list(out.iterdir()) == []
        outcomes.add(covered[1, 2] == 0.0)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "rows",
    [
        (ROW_BLOCK + 10,), (ROW_BLOCK + 270,), (10,), (ROW_BLOCK + 522,),
        (ROW_BLOCK + 10, ROW_BLOCK + 522), (ROW_BLOCK + 270, ROW_BLOCK + 522),
    ],
    ids=lambda rows: "-".join(map(str, rows)),
)
def test_an_overflow_in_a_later_block_gives_the_bytes_of_the_float64_route(tmp_path, rows):
    # the overflows sit in the first, second or third 256-row part of a block,
    # the first block or a later one; two of them in one block send it on as
    # float64, float32 and float64 rows, or as float32 rows and two float64
    # parts; every row keeps the bytes of standardizing the whole record in
    # float64, masking and rounding once
    values = np.random.default_rng(rows[0]).normal(size=(2 * ROW_BLOCK + 300, 3))
    for row in rows:
        values[row, 2] = 3e38
    write_spfx_raw(tmp_path / "big.spfx", values, kind_code=1)
    write_spfx_raw(tmp_path / "c.spfx-stats", [[0.5, -1.0, 0.0], [2.0, 0.5, 1e-9]], kind_code=255, frame_shift_ms=0.0)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("big\tbig.spfx\n", encoding="utf-8")
    widened = values.astype(np.float32).astype(np.float64)
    standardized = (widened - [0.5, -1.0, 0.0]) / np.sqrt(np.maximum(np.float32([2.0, 0.5, 1e-9]).astype(np.float64), 1e-8))
    outcomes = set()
    for seed in range(12):
        out = tmp_path / f"out{seed}"
        policy = POLICY_PRESETS["ld-like"]
        masks, _ = sample_policy_masks(policy, len(values), 3, RngState(derive_utterance_seed(seed, "big")))
        expected = standardized.copy()
        for mask in masks:
            expected[mask_index(mask, expected.shape)] = 0.0
        summary = run_pipeline(RunConfig(
            manifest_path=str(manifest), output_dir=str(out), policy=policy, seed=seed,
            stats_path=str(tmp_path / "c.spfx-stats"),
        ))
        unmasked = [row for row in rows if expected[row, 2] != 0.0]
        if not unmasked:
            assert summary.failures == []
            assert read_spfx(out / "big.spfx").data.tobytes() == expected.astype(np.float32).tobytes()
        else:
            assert f"at row {unmasked[0]}, column 2 is not finite as float32; nothing written" in summary.failures[0][1]
            assert list(out.iterdir()) == []
        outcomes.add(not unmasked)
    assert outcomes == {True, False}


REAUGMENTED_VALUES = 20000 * 80


def reaugment_peak(tmp_path) -> tuple[RunSummary, int]:
    """Summary and tracemalloc peak of one epoch that re-augments a 20000 x 80 record with stats."""
    write_spfx_raw(tmp_path / "long.spfx", np.random.default_rng(3).normal(size=(20000, 80)), kind_code=1)
    write_spfx_raw(tmp_path / "c.spfx-stats", [np.full(80, 0.5), np.full(80, 2.0)], kind_code=255, frame_shift_ms=0.0)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("long\tlong.spfx\n", encoding="utf-8")

    def epoch(seed: int) -> RunSummary:
        return run_pipeline(
            RunConfig(
                manifest_path=str(manifest),
                output_dir=str(tmp_path / "out"),
                policy=POLICY_PRESETS["ld-like"],
                seed=seed,
                stats_path=str(tmp_path / "c.spfx-stats"),
            )
        )

    epoch(1)  # lazily built constants are made outside the measurement
    tracemalloc.start()
    try:
        summary = epoch(2)
        return summary, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reaugmenting_a_record_holds_one_float64_copy_of_it(tmp_path):
    summary, peak = reaugment_peak(tmp_path)
    assert summary.failures == []
    # at most one float64 copy of the record beside its payload and a
    # one-byte-a-value finite mask; a second float64 array does not fit
    assert peak < 15 * REAUGMENTED_VALUES


def test_reaugmenting_a_record_holds_its_float32_payload_once(tmp_path):
    summary, peak = reaugment_peak(tmp_path)
    assert summary.failures == []
    # the float32 payload, read, standardized, masked and written in place, plus
    # a one-byte-a-value finite mask; a float64 copy (8 bytes a value) does not fit
    assert peak < 6 * REAUGMENTED_VALUES


def one_record_peak(tmp_path, input_name: str, **fields) -> int:
    """tracemalloc peak of a run over the one record `input_name`, after a first run has built the cached constants."""
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"rec\t{input_name}\n", encoding="utf-8")
    config = RunConfig(manifest_path=str(manifest), output_dir=str(tmp_path / "out"), **fields)
    assert run_pipeline(config).failures == []
    tracemalloc.start()
    try:
        summary = run_pipeline(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.failures == []
    return peak


def test_a_log_mel_records_peak_does_not_grow_with_its_length(tmp_path):
    # a WAV record streams to its .spfx in windows of samples and mel chunks of
    # rows, so a 5-minute record holds no more than a 1-minute one; a one-band
    # bank is chunked as any other
    for minutes in (1, 5):
        values = np.random.default_rng(minutes).integers(-12000, 12000, size=minutes * 60 * 16000, dtype=np.int16)
        write_wav_int16(tmp_path / f"{minutes}.wav", values, 16000)
    for dsp in (DspConfig(), DspConfig(n_mels=1)):
        peaks = {minutes: one_record_peak(tmp_path, f"{minutes}.wav", dsp=dsp, mode="eval") for minutes in (1, 5)}
        assert abs(peaks[5] - peaks[1]) < 256 * 1024, (dsp.n_mels, peaks)
        assert peaks[5] < 2 * 2**20, (dsp.n_mels, peaks)


def test_an_mfcc_records_peak_does_not_grow_with_its_length(tmp_path):
    # an MFCC record's mel products and DCT run one chunk of MEL_BLOCK frames
    # at a time, so a 5-minute iwslt-like record holds no more than a 1-minute one
    peaks = {}
    for minutes in (1, 5):
        values = np.random.default_rng(minutes).integers(-12000, 12000, size=minutes * 60 * 16000, dtype=np.int16)
        write_wav_int16(tmp_path / f"{minutes}.wav", values, 16000)
        peaks[minutes] = one_record_peak(tmp_path, f"{minutes}.wav", dsp=DSP_PRESETS["iwslt-like"], mode="eval")
    assert abs(peaks[5] - peaks[1]) < 256 * 1024, peaks
    assert peaks[5] < 3 * 2**20, peaks


def test_an_spfx_records_peak_does_not_grow_with_its_length(tmp_path):
    # an SPFX record is read, standardized, masked and written ROW_BLOCK rows at
    # a time, so 30,000 rows hold no more than 6,000
    write_spfx_raw(tmp_path / "c.spfx-stats", [np.full(80, 0.5), np.full(80, 2.0)], kind_code=255, frame_shift_ms=0.0)
    peaks = {}
    for rows in (6000, 30000):
        write_spfx_raw(tmp_path / f"{rows}.spfx", np.random.default_rng(rows).normal(size=(rows, 80)), kind_code=1)
        peaks[rows] = one_record_peak(
            tmp_path, f"{rows}.spfx", policy=POLICY_PRESETS["ld-like"], seed=2, stats_path=str(tmp_path / "c.spfx-stats")
        )
    assert abs(peaks[30000] - peaks[6000]) < 256 * 1024, peaks
    assert peaks[30000] < 2**19, peaks


def test_a_masked_overflow_adds_at_most_one_part_to_a_records_peak(tmp_path):
    # standardized against a variance of 1e-9, 3e38 overflows float32; a mask
    # covers it, so the record is written, and only the 256-row part holding
    # it goes on in float64, not its whole 768-row block
    variance = np.full(80, 2.0)
    variance[5] = 1e-9
    write_spfx_raw(tmp_path / "c.spfx-stats", [np.full(80, 0.5), variance], kind_code=255, frame_shift_ms=0.0)
    values = np.random.default_rng(6).normal(size=(6000, 80))
    write_spfx_raw(tmp_path / "fine.spfx", values, kind_code=1)
    values[ROW_BLOCK + 300, 5] = 3e38
    write_spfx_raw(tmp_path / "big.spfx", values, kind_code=1)
    policy = POLICY_PRESETS["ld-like"]

    def covers(seed: int) -> bool:
        masks, _ = sample_policy_masks(policy, 6000, 80, RngState(derive_utterance_seed(seed, "rec")))
        covered = np.zeros((6000, 80), dtype=bool)
        for mask in masks:
            covered[mask_index(mask, covered.shape)] = True
        return covered[ROW_BLOCK + 300, 5]

    seed = next(seed for seed in range(100) if covers(seed))
    peaks = {
        name: one_record_peak(tmp_path, f"{name}.spfx", policy=policy, seed=seed, stats_path=str(tmp_path / "c.spfx-stats"))
        for name in ("fine", "big")
    }
    assert peaks["big"] - peaks["fine"] < 128 * 1024, peaks


@pytest.mark.parametrize("workers", [1, 8])
def test_a_nan_in_the_last_row_block_fails_only_its_record_and_leaves_no_file(tmp_path, workers):
    # the record's first blocks are written before its last is read; the
    # partial file is removed, and so are files of that id from an earlier run
    late = np.ones((3 * ROW_BLOCK + 5, 4))
    late[-1, 2] = np.nan
    write_spfx_raw(tmp_path / "late.spfx", late, kind_code=1)
    write_spfx_raw(tmp_path / "fine.spfx", np.ones((7, 4)), kind_code=1)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("late\tlate.spfx\nfine\tfine.spfx\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "late.spfx").write_bytes(b"left by an earlier run")
    (out / "late.masks").write_text("time\t0\t1\n", encoding="utf-8")
    summary = run_pipeline(
        RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            policy=POLICY_PRESETS["ld-like"],
            seed=4,
            num_workers=workers,
        )
    )
    assert summary.failures == [("late", f"{tmp_path / 'late.spfx'}: feature data must be finite")]
    assert summary.utterances_processed == 1
    assert sorted(p.name for p in out.iterdir()) == ["fine.masks", "fine.spfx"]


def test_cap_warning_recorded_in_summary(tmp_path):
    # a 400-sample 16 kHz file yields exactly one frame; 2 time masks cap to 1
    write_wav(tmp_path / "short.wav", np.ones(400) * 0.1, 16000)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("short\tshort.wav\n", encoding="utf-8")
    out = tmp_path / "out"
    summary = run_pipeline(
        RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            policy=POLICY_PRESETS["libri-best"],
            seed=2,
            mode="train",
        )
    )
    assert any("capped" in w for w in summary.warnings)
    masks = masks_from_text((out / "short.masks").read_text())
    assert sum(m.axis == "time" for m in masks) == 1


def test_capped_utterances_raise_no_warning(tmp_path):
    # one-frame utterances under ld-like: the summary note is the only report of the cap
    for name in ("a", "b"):
        write_wav(tmp_path / f"{name}.wav", np.ones(400) * 0.1, 16000)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\ta.wav\nb\tb.wav\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_pipeline(
            RunConfig(
                manifest_path=str(manifest),
                output_dir=str(tmp_path / "out"),
                policy=POLICY_PRESETS["ld-like"],
                seed=3,
                mode="train",
            )
        )
    assert summary.utterances_processed == 2
    assert summary.failures == []
    assert summary.warnings == [
        f"{name}: requested 2 time masks but only 1 frames; capped" for name in ("a", "b")
    ]


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(manifest_path="m", output_dir="o", mode="test")
    with pytest.raises(ConfigError):
        RunConfig(manifest_path="m", output_dir="o", seed=2**64)
    with pytest.raises(ConfigError):
        RunConfig(manifest_path="m", output_dir="o", num_workers=0)
    config = RunConfig(manifest_path="m", output_dir="o", policy=POLICY_PRESETS["ld-like"], mode="eval")
    assert config.effective_policy == POLICY_PRESETS["none"]


# ------------------------------------------------------------- config files


def test_parse_dsp_config_happy_path():
    text = "# front end\nn_mels = 64\npre_emphasis = 0.95\nfeature = mfcc\nn_coeffs = 20\nn_fft = 1024\n"
    cfg = parse_dsp_config(text)
    assert cfg == DspConfig(n_mels=64, pre_emphasis=0.95, feature="mfcc", n_coeffs=20, n_fft=1024)


def test_parse_dsp_config_sets_every_field_with_its_type():
    expected = {
        "pre_emphasis": 0.9,
        "frame_len_ms": 20.0,
        "frame_shift_ms": 5.0,
        "n_fft": 512,
        "n_mels": 26,
        "n_coeffs": 13,
        "log_floor": 1e-8,
        "fmin_hz": 20.0,
        "fmax_hz": 7000.0,
        "feature": "mfcc",
    }
    assert set(expected) == {f.name for f in fields(DspConfig)}
    # whole-number floats are written without a point, so each must still parse as float
    text = "pre_emphasis = 0.9\nframe_len_ms = 20\nframe_shift_ms = 5\nn_fft = 512\nn_mels = 26\n"
    text += "n_coeffs = 13\nlog_floor = 1e-8\nfmin_hz = 20\nfmax_hz = 7000\nfeature = mfcc\n"
    cfg = parse_dsp_config(text)
    for name, value in expected.items():
        parsed = getattr(cfg, name)
        assert parsed == value and type(parsed) is type(value), name


def test_parse_dsp_config_none_values():
    cfg = parse_dsp_config("n_fft = none\nfmax_hz = NONE\n")
    assert cfg.n_fft is None
    assert cfg.fmax_hz is None


def test_parse_dsp_config_unknown_key():
    with pytest.raises(ConfigError, match="line 2.*window"):
        parse_dsp_config("n_mels = 40\nwindow = hann\n")


def test_parse_dsp_config_bad_value():
    with pytest.raises(ConfigError, match="line 1"):
        parse_dsp_config("n_mels = forty\n")


def test_parse_dsp_config_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_dsp_config("n_mels 40\n")


def test_parse_dsp_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_dsp_config("n_mels = 40\nn_mels = 80\n")


def test_parse_dsp_config_constraint_violation_propagates():
    with pytest.raises(ConfigError):
        parse_dsp_config("pre_emphasis = 1.5\n")


def test_parse_dsp_config_empty_gives_defaults():
    assert parse_dsp_config("") == DspConfig()


# ------------------------------------------------------------- record driver


def _records(count: int) -> list[ManifestRecord]:
    return [ManifestRecord(f"r{i}", f"r{i}.wav") for i in range(count)]


def test_one_worker_runs_each_task_when_its_result_is_taken():
    started = []

    def task(record):
        started.append(record.utterance_id)
        return record.utterance_id

    summary = RunSummary()
    results = map_records(_records(4), task, 1, summary)
    for i, result in enumerate(results):
        assert result == f"r{i}"
        assert started == [f"r{j}" for j in range(i + 1)]
    assert summary.utterances_processed == 4


def test_many_workers_merge_in_manifest_order():
    records = _records(12)
    failing = {"r2": ValueError("bad value"), "r5": OSError("no such file"), "r9": FormatError("bad magic")}
    last_started = threading.Event()
    finished = []
    lock = threading.Lock()

    def task(record):
        if record.utterance_id == "r0":
            # the first record finishes only after the last one has started
            assert last_started.wait(timeout=10)
        if record.utterance_id == "r11":
            last_started.set()
        with lock:
            finished.append(record.utterance_id)
        if record.utterance_id in failing:
            raise failing[record.utterance_id]
        return record.utterance_id.upper()

    summary = RunSummary()
    results = list(map_records(records, task, 8, summary))
    assert finished[0] != "r0" and "r0" in finished
    assert results == [r.utterance_id.upper() for r in records if r.utterance_id not in failing]
    assert summary.failures == [("r2", "bad value"), ("r5", "no such file"), ("r9", "bad magic")]
    assert summary.utterances_processed == 9


@pytest.mark.parametrize("num_workers", [1, 8])
def test_an_error_outside_the_failure_policy_escapes_the_driver(num_workers):
    def task(record):
        if record.utterance_id == "r3":
            raise RuntimeError("bug")
        return record.utterance_id

    with pytest.raises(RuntimeError, match="bug"):
        list(map_records(_records(6), task, num_workers, RunSummary()))


# ------------------------------------------------------------- golden trees
#
# Output trees pinned by SHA-256.  The stats have a nonzero mean, non-unit
# variances and one variance below the floor, so a change to the order or
# form of the standardize arithmetic, the masking or the float32 packing
# changes a digest.  The digests were recorded from the copying path that
# came before in-place standardize and masking.

GOLDEN_SPFX_TREE = "1369b3a80e875f76e4108a115ff97f7d7ddba021fa9a2277da9b23d1713ea8d9"
GOLDEN_WAV_TREE = "98b4a5ba4f5fd91e89b84a5b8e064b8e065ee284dcc1f5915c7ce93ac0fe669e"


@pytest.mark.parametrize("workers", [1, 8])
def test_standardized_spfx_tree_is_pinned(tmp_path, workers):
    manifest = build_spfx_corpus(tmp_path)
    golden_stats(tmp_path / "c.spfx-stats", 16)
    out = tmp_path / "out"
    summary = run_pipeline(
        RunConfig(
            manifest_path=str(manifest),
            output_dir=str(out),
            policy=AugmentPolicy(6, 2, 25, 2),
            seed=11,
            stats_path=str(tmp_path / "c.spfx-stats"),
            num_workers=workers,
        )
    )
    assert summary.failures == []
    assert tree_digest(out) == GOLDEN_SPFX_TREE


@pytest.mark.parametrize("workers", [1, 8])
def test_augmented_wav_tree_with_stats_is_pinned(tmp_path, workers):
    manifest = build_corpus(tmp_path, 4)
    golden_stats(tmp_path / "c.spfx-stats", 40)
    out = tmp_path / "out"
    assert main([
        "augment", "--policy", "libri-best", "--seed", "3", "--stats", str(tmp_path / "c.spfx-stats"),
        "--workers", str(workers), "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    assert tree_digest(out) == GOLDEN_WAV_TREE
