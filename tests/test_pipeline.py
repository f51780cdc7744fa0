"""End-to-end pipeline determinism, eval-mode identity, and config parsing."""

from __future__ import annotations

import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from specmask.errors import ConfigError, FormatError
from specmask.features import DspConfig
from specmask.manifest import ManifestRecord
from specmask.masking import POLICY_PRESETS, masks_from_text
from specmask.pipeline import RunConfig, RunSummary, map_records, parse_dsp_config, run_pipeline
from specmask.spfx import read_spfx, write_stats_container
from specmask.stats import CorpusStats

from conftest import build_corpus, tree_bytes, write_wav


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
