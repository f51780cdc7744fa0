"""Command-line interface: subcommand behaviour and exit codes."""

from __future__ import annotations

import argparse
import math
import os
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from specmask import cli, errors
from specmask.cli import build_parser, main
from specmask.features import ROW_BLOCK, DspConfig, FeatureMatrix, extract, read_wav
from specmask.masking import POLICY_PRESETS, masks_from_text
from specmask.pipeline import RunConfig, run_pipeline
from specmask.spfx import HEADER, read_spfx, read_stats_container, write_spfx, write_stats_container
from specmask.stats import CorpusStats, accumulate_stats

from conftest import (
    build_corpus, build_spfx_corpus, golden_stats, run_python, tree_bytes, tree_digest, write_spfx_raw, write_wav,
)


def test_extract_writes_features_and_empty_sidecars(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 3)
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    for i in range(3):
        features = read_spfx(out / f"utt{i:03d}.spfx")
        assert features.kind == "log_mel"
        assert features.num_channels == 40
        assert (out / f"utt{i:03d}.masks").read_text() == ""
    assert "processed 3 utterances" in capsys.readouterr().out


def test_extract_config_file_changes_output(tmp_path):
    manifest = build_corpus(tmp_path, 1)
    config = tmp_path / "dsp.cfg"
    config.write_text("n_mels = 26\nfeature = mfcc\nn_coeffs = 13\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]) == 0
    features = read_spfx(out / "utt000.spfx")
    assert features.kind == "mfcc"
    assert features.num_channels == 13


def test_extract_equals_augment_eval_tree(tmp_path):
    # `extract` is the CLI's eval mode: a pipeline run in eval mode ignores its policy and seed
    manifest = build_corpus(tmp_path, 4)
    extract_out = tmp_path / "extract"
    augment_out = tmp_path / "augment"
    assert main(["extract", "--manifest", str(manifest), "--out", str(extract_out)]) == 0
    config = RunConfig(str(manifest), str(augment_out), policy=POLICY_PRESETS["libri-best"], seed=11, mode="eval")
    assert run_pipeline(config).failures == []
    assert tree_bytes(extract_out) == tree_bytes(augment_out)


def test_augment_train_sidecar_counts(tmp_path):
    manifest = build_corpus(tmp_path, 3)
    out = tmp_path / "out"
    assert main([
        "augment", "--policy", "libri-best", "--seed", "7",
        "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    for i in range(3):
        masks = masks_from_text((out / f"utt{i:03d}.masks").read_text())
        assert sum(m.axis == "time" for m in masks) == 2
        assert sum(m.axis == "frequency" for m in masks) == 1


def test_augment_literal_policy_and_determinism(tmp_path):
    manifest = build_corpus(tmp_path, 3)
    trees = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main([
            "augment", "--policy", "3,1,5,2", "--seed", "21",
            "--manifest", str(manifest), "--out", str(out),
        ]) == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
    masks = masks_from_text((tmp_path / "out0" / "utt000.masks").read_text())
    assert len(masks) == 3


def test_augment_worker_count_is_invisible(tmp_path):
    manifest = build_corpus(tmp_path, 5)
    out1 = tmp_path / "w1"
    out8 = tmp_path / "w8"
    args = ["augment", "--policy", "ld-like", "--seed", "5", "--manifest", str(manifest)]
    assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--out", str(out8), "--workers", "8"]) == 0
    assert tree_bytes(out1) == tree_bytes(out8)


def test_stats_then_standardize_centers_the_corpus(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 4)
    stats_path = tmp_path / "corpus.spfx-stats"
    assert main(["stats", "--manifest", str(manifest), "--out", str(stats_path)]) == 0
    stats = read_stats_container(stats_path)
    assert stats.num_channels == 40

    out = tmp_path / "std"
    assert main([
        "extract", "--stats", str(stats_path),
        "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    standardized = [read_spfx(out / f"utt{i:03d}.spfx") for i in range(4)]
    assert all(f.kind == "standardized_log_mel" for f in standardized)
    merged = accumulate_stats(standardized)
    assert np.all(np.abs(merged.mean) < 1e-5)
    assert np.all(np.abs(merged.variance - 1.0) < 1e-4)
    assert "processed 4 utterances, 0 masks drawn" in capsys.readouterr().out


def test_standardize_tree_equals_augment_eval_with_stats(tmp_path):
    manifest = build_corpus(tmp_path, 3)
    stats_path = tmp_path / "corpus.spfx-stats"
    assert main(["stats", "--manifest", str(manifest), "--out", str(stats_path)]) == 0
    std_out = tmp_path / "std"
    eval_out = tmp_path / "eval"
    assert main(["extract", "--stats", str(stats_path), "--manifest", str(manifest), "--out", str(std_out)]) == 0
    config = RunConfig(
        str(manifest), str(eval_out), policy=POLICY_PRESETS["ld-like"], seed=4, mode="eval", stats_path=str(stats_path)
    )
    assert run_pipeline(config).failures == []
    assert tree_bytes(std_out) == tree_bytes(eval_out)


# Digests recorded from the commands that `extract` replaced: `augment --mode eval --policy ld-like
# --seed 7` at 1 and 8 workers for the plain trees, `standardize` (one worker) for the `--stats` trees.
EVAL_TREES = {
    ("wav", False): "9c00480e05b037648bee1f8c199a53e0d75203007ecc23ee6730697016e35235",
    ("wav", True): "4b2013a1fb6376a3ae2b34f284badf27bf8fec7bcc56c159938089acdc02f973",
    ("spfx", False): "82af74dfa8444ca3349e089993f35c7f63dcbc9b6af2bc4d6d39eecb9e25eab0",
    ("spfx", True): "ab4e07eecefad7bc04f6df62f1c212e9a7a8a9f3617cba933ef951065428035a",
}


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("corpus", ["wav", "spfx"])
def test_extract_trees_are_pinned(tmp_path, corpus, workers):
    manifest = build_corpus(tmp_path, 4) if corpus == "wav" else build_spfx_corpus(tmp_path)
    stats_path = tmp_path / "c.spfx-stats"
    golden_stats(stats_path, 40 if corpus == "wav" else 16)
    for with_stats in (False, True):
        out = tmp_path / f"out-{with_stats}"
        argv = ["extract", "--workers", str(workers), "--manifest", str(manifest), "--out", str(out)]
        assert main(argv + (["--stats", str(stats_path)] if with_stats else [])) == 0
        assert tree_digest(out) == EVAL_TREES[corpus, with_stats]


# Recorded while SPFX records were still widened to float64 on read and cast back to float32 on write.
SPFX_TRAIN_TREE = "549b7d4d5d423d4d56c8555b83a605524b0a2b50fe4a0979bbfbd8a1f28baee7"


@pytest.mark.parametrize("workers", [1, 8])
def test_spfx_train_trees_are_pinned(tmp_path, workers):
    # standardized and masked float32 records: the bytes `reaugment-spfx-ld` writes each epoch
    manifest = build_spfx_corpus(tmp_path)
    stats_path = tmp_path / "c.spfx-stats"
    golden_stats(stats_path, 16)
    out = tmp_path / "out"
    assert main([
        "augment", "--policy", "ld-like", "--seed", "7", "--stats", str(stats_path), "--workers", str(workers),
        "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    assert tree_digest(out) == SPFX_TRAIN_TREE


def test_augment_with_stats_standardizes_before_masking(tmp_path):
    manifest = build_corpus(tmp_path, 2)
    stats_path = tmp_path / "corpus.spfx-stats"
    assert main(["stats", "--manifest", str(manifest), "--out", str(stats_path)]) == 0
    out = tmp_path / "out"
    assert main([
        "augment", "--policy", "libri-best", "--seed", "3", "--stats", str(stats_path),
        "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    assert read_spfx(out / "utt000.spfx").kind == "standardized_log_mel"


def test_slice_sizes_and_nesting(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 10)
    out = tmp_path / "slices"
    assert main([
        "slice", "--manifest", str(manifest), "--fractions", "0.3,0.7,1.0",
        "--seed", "2", "--out", str(out),
    ]) == 0
    sizes = []
    texts = []
    for token in ("0.3", "0.7", "1.0"):
        text = (out / f"slice_{token}.tsv").read_text()
        texts.append(text)
        sizes.append(len(text.splitlines()))
    assert sizes == [3, 7, 10]
    assert texts[1].startswith(texts[0])
    assert texts[2].startswith(texts[1])
    assert "3 records" in capsys.readouterr().out


def test_slice_rejects_bad_fractions(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 4)
    out = str(tmp_path / "slices")
    base = ["slice", "--manifest", str(manifest), "--out", out]
    for fractions, message in [
        ("0.7,0.3", "fractions must be ascending, got [Fraction(7, 10), Fraction(3, 10)]"),
        ("0", "fractions must be in (0, 1], got 0"),
        ("1.5", "fractions must be in (0, 1], got 3/2"),
        ("abc", "bad fractions 'abc': Invalid literal for Fraction: 'abc'"),
    ]:
        assert main(base + ["--fractions", fractions]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "slices").exists()


def test_render_writes_parseable_pgm(tmp_path):
    manifest = build_corpus(tmp_path, 1)
    out = tmp_path / "out"
    assert main([
        "augment", "--policy", "libri-best", "--seed", "9",
        "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    image = tmp_path / "panel.pgm"
    assert main([
        "render", "--features", str(out / "utt000.spfx"),
        "--masks", str(out / "utt000.masks"), "--out", str(image),
    ]) == 0
    lines = image.read_text(encoding="ascii").splitlines()
    assert lines[0] == "P2"
    width, height = map(int, lines[1].split())
    features = read_spfx(out / "utt000.spfx")
    assert (width, height) == (features.num_frames, features.num_channels)
    assert lines[2] == "255"
    values = [int(tok) for line in lines[3:] for tok in line.split()]
    assert len(values) == width * height
    assert min(values) >= 0 and max(values) <= 255


def test_render_without_masks(tmp_path):
    manifest = build_corpus(tmp_path, 1)
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    image = tmp_path / "plain.pgm"
    assert main(["render", "--features", str(out / "utt000.spfx"), "--out", str(image)]) == 0
    assert image.read_text(encoding="ascii").startswith("P2\n")


BAD_FRAME_SHIFTS = [math.nan, -10.0, 0.0, math.inf]


@pytest.mark.parametrize(
    "rows, shift, reason",
    [
        (np.array([[0.0, math.nan], [1.0, 2.0]]), 10.0, "feature data must be finite"),
        (np.zeros((0, 4)), 10.0, "data must be a 2-D matrix with T >= 1 and channels >= 1, got shape (0, 4)"),
        *[(np.ones((4, 3)), shift, f"frame_shift_ms must be finite and > 0, got {shift}") for shift in BAD_FRAME_SHIFTS],
    ],
    ids=["nan", "no-frames", "shift-nan", "shift-negative", "shift-zero", "shift-inf"],
)
def test_render_of_an_spfx_that_features_refuse_exits_2(tmp_path, capsys, rows, shift, reason):
    spfx = tmp_path / "bad.spfx"
    write_spfx_raw(spfx, rows, kind_code=0, frame_shift_ms=shift)
    image = tmp_path / "panel.pgm"
    assert main(["render", "--features", str(spfx), "--out", str(image)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {spfx}: {reason}\n"
    assert captured.out == ""
    assert not image.exists()


def test_spfx_inputs_with_a_bad_frame_shift_fail_their_records(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    for i, shift in enumerate(BAD_FRAME_SHIFTS):
        write_spfx_raw(tmp_path / f"in{i}.spfx", np.ones((4, 3)), kind_code=1, frame_shift_ms=shift)
    manifest.write_text("".join(f"in{i}\tin{i}.spfx\n" for i in range(len(BAD_FRAME_SHIFTS))), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["augment", "--policy", "ld-like", "--manifest", str(manifest), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"failed: in{i}: {tmp_path / f'in{i}.spfx'}: frame_shift_ms must be finite and > 0, got {shift}"
        for i, shift in enumerate(BAD_FRAME_SHIFTS)
    ]
    assert "processed 0 utterances" in captured.out
    assert list(out.iterdir()) == []


def test_an_overflowing_value_is_reported_as_a_plain_number(tmp_path, capsys):
    # 3e38 over a scale of 1e-4 (a variance of 1e-9, below the floor) is about
    # 3e42, which float32 cannot hold; extract draws no mask to cover it
    big = np.ones((4, 3))
    big[1, 2] = 3e38
    write_spfx_raw(tmp_path / "big.spfx", big, kind_code=1)
    write_spfx_raw(tmp_path / "c.spfx-stats", [[0.0, 0.0, 0.0], [1.0, 1.0, 1e-9]], kind_code=255, frame_shift_ms=0.0)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("big\tbig.spfx\n", encoding="utf-8")
    out = tmp_path / "out"
    stats = str(tmp_path / "c.spfx-stats")
    assert main(["extract", "--stats", stats, "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"failed: big: {out / 'big.spfx'}: value 3.000000005497756e+42 at row 1, column 2 "
        "is not finite as float32; nothing written\n"
    )
    assert "np.float64(" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("alias", [False, True, "input-dir-link", "hard-link"])
def test_a_record_whose_input_is_its_own_output_exits_2(tmp_path, capsys, alias):
    # records stream from input to output, so writing over the input would
    # truncate it before it is read, and a failed record's cleanup would then
    # remove it; an --out reached through a link (True), an input path through
    # a directory link to --out and a hard link to the output count too
    write_spfx_raw(tmp_path / "u0.spfx", np.ones((2 * ROW_BLOCK + 5, 3)), kind_code=1)
    before = (tmp_path / "u0.spfx").read_bytes()
    out, path, made = tmp_path, "u0.spfx", []
    if alias is True:
        out = tmp_path.parent / f"{tmp_path.name}-link"
        out.symlink_to(tmp_path, target_is_directory=True)
    elif alias == "input-dir-link":
        path, made = "alias/u0.spfx", ["alias"]
        (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
    elif alias == "hard-link":
        path, made = "in/u0.spfx", ["in"]
        (tmp_path / "in").mkdir()
        os.link(tmp_path / "u0.spfx", tmp_path / path)
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"u0\t{path}\n", encoding="utf-8")
    assert main(["augment", "--policy", "ld-like", "--manifest", str(manifest), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: record 'u0': its input {path} is its own output file\n"
    assert (tmp_path / path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["m.tsv", "u0.spfx", *made])


def test_render_sidecar_that_does_not_fit_exits_2(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 1)
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    frames = read_spfx(out / "utt000.spfx").num_frames
    sidecar = tmp_path / "too-long.masks"
    sidecar.write_text(f"time\t0\t{frames + 1}\n", encoding="utf-8")
    image = tmp_path / "panel.pgm"
    assert main([
        "render", "--features", str(out / "utt000.spfx"), "--masks", str(sidecar), "--out", str(image),
    ]) == 2
    assert f"exceeds axis extent {frames}" in capsys.readouterr().err
    assert not image.exists()


def test_verify_grid_passes_at_reduced_trials(capsys):
    assert main(["verify", "--trials", "10000"]) == 0
    out = capsys.readouterr().out
    assert "168/168 grid cells passed" in out
    assert "FAIL" not in out


def test_verify_too_few_trials_exits_2(capsys):
    assert main(["verify", "--trials", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trials must be >= 100, got 50\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf")])
def test_demo_bad_training_argument_exits_2(tmp_path, capsys, monkeypatch, flag, value):
    # a NaN or infinite rate is a configuration error, not a divergence (exit 1),
    # and it is refused before the dataset is built
    from specmask import toy

    def generate_dataset(params, seed):
        raise AssertionError("the dataset was built before the training values were checked")

    monkeypatch.setattr(toy, "generate_dataset", generate_dataset)
    curve_path = tmp_path / "curve.csv"
    assert main(["demo", flag, value, "--out", str(curve_path)]) == 2
    captured = capsys.readouterr()
    if flag == "--epochs":
        message = f"epochs must be >= 1, got {value}"
    else:
        message = f"lr must be finite and >= 0, got {float(value)}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not curve_path.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["verify", "demo", "slice", "augment"])
def test_seed_outside_u64_exits_2(tmp_path, capsys, command, seed):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\ta.wav\n", encoding="utf-8")
    out = tmp_path / "out"
    rest = {
        "verify": ["--trials", "200"],
        "demo": ["--epochs", "1", "--out", str(out)],
        "slice": ["--fractions", "1", "--manifest", str(manifest), "--out", str(out)],
        "augment": ["--policy", "libri-best", "--manifest", str(manifest), "--out", str(out)],
    }[command]
    assert main([command, "--seed", str(seed), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert captured.out == ""
    assert not out.exists()


def test_demo_writes_learning_curve(tmp_path, capsys):
    curve_path = tmp_path / "curve.csv"
    assert main(["demo", "--epochs", "5", "--seed", "3", "--out", str(curve_path)]) == 0
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "epoch,train_nll,dev_nll"
    assert len(lines) == 6
    for epoch, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == epoch
        assert math.isfinite(float(fields[1])) and math.isfinite(float(fields[2]))
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "options, expected",
    [
        ([], None),
        (["--epochs", "3", "--lr", "0", "--seed", "0"], (3, 0.0, 0)),
    ],
    ids=["defaults", "given"],
)
def test_demo_takes_unset_training_values_from_toy(tmp_path, monkeypatch, options, expected):
    from specmask import toy

    class Trained(Exception):
        pass

    seen = {}
    monkeypatch.setattr(toy, "generate_dataset", lambda params, seed: seen.update(dataset_seed=seed))

    def train(dataset, policy, epochs, lr, seed):
        seen.update(policy=policy, epochs=epochs, lr=lr, seed=seed)
        raise Trained

    monkeypatch.setattr(toy, "train", train)
    with pytest.raises(Trained):
        main(["demo", *options, "--out", str(tmp_path / "curve.csv")])
    epochs, lr, seed = expected or (toy.DEFAULT_DEMO_EPOCHS, toy.DEFAULT_DEMO_LR, toy.DEFAULT_DEMO_SEED)
    assert seen == {"dataset_seed": seed, "policy": toy.DEFAULT_DEMO_POLICY, "epochs": epochs, "lr": lr, "seed": seed}


def test_demo_policy_none_differs_from_default(tmp_path):
    masked = tmp_path / "masked.csv"
    clean = tmp_path / "clean.csv"
    assert main(["demo", "--epochs", "6", "--seed", "3", "--out", str(masked)]) == 0
    assert main(["demo", "--epochs", "6", "--seed", "3", "--policy", "0,0,0,0", "--out", str(clean)]) == 0
    assert masked.read_text() != clean.read_text()


def test_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["extract", "--manifest", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "augment"])
def test_missing_stats_exits_2_before_creating_the_output(tmp_path, capsys, command):
    manifest = build_corpus(tmp_path, 1)
    out = tmp_path / "o"
    assert main([command, "--stats", str(tmp_path / "nope"), "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize(
    "row, value", [(0, math.nan), (1, -1.0), (1, math.inf)], ids=["nan-mean", "negative-variance", "inf-variance"]
)
@pytest.mark.parametrize("command", ["extract", "augment"])
def test_malformed_stats_container_exits_2_before_creating_the_output(tmp_path, capsys, command, row, value):
    manifest = build_corpus(tmp_path, 1)
    stats_path = tmp_path / "corpus.spfx-stats"
    write_stats_container(CorpusStats(np.zeros(40), np.ones(40), count=1), stats_path)
    raw = bytearray(stats_path.read_bytes())
    struct.pack_into("<f", raw, HEADER.size + 4 * 40 * row + 4 * 7, value)  # channel 7 of the mean or variance row
    stats_path.write_bytes(bytes(raw))
    out = tmp_path / "o"
    assert main([command, "--stats", str(stats_path), "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stats_path}: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_stats_that_overflow_float32_exit_2_and_write_nothing(tmp_path, capsys):
    # values of +-3e38 are finite float32, but their variance (about 9e76) is not
    data = np.full((4, 3), 3e38)
    data[::2] *= -1
    write_spfx_raw(tmp_path / "big.spfx", data, kind_code=1)
    (tmp_path / "m.tsv").write_text("big\tbig.spfx\n", encoding="utf-8")
    stats_path = tmp_path / "corpus.spfx-stats"
    assert main(["stats", "--manifest", str(tmp_path / "m.tsv"), "--out", str(stats_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stats_path}: ") and "is not finite as float32" in err
    assert not stats_path.exists()


UNUSABLE_PATHS = {
    "render-out-dir": ["render", "--features", "{spfx}", "--out", "{dir}"],
    "render-features-dir": ["render", "--features", "{dir}", "--out", "{tmp}/x.pgm"],
    "render-masks-dir": ["render", "--features", "{spfx}", "--masks", "{dir}", "--out", "{tmp}/x.pgm"],
    "extract-out-file": ["extract", "--manifest", "{manifest}", "--out", "{file}"],
    "stats-out-dir": ["stats", "--manifest", "{manifest}", "--out", "{dir}"],
    "demo-out-dir": ["demo", "--epochs", "1", "--out", "{dir}"],
    "slice-out-file": ["slice", "--manifest", "{manifest}", "--fractions", "1", "--out", "{file}"],
    "config-dir": ["extract", "--config", "{dir}", "--manifest", "{manifest}", "--out", "{tmp}/o"],
    "manifest-dir": ["extract", "--manifest", "{dir}", "--out", "{tmp}/o"],
    "augment-stats-dir": ["augment", "--stats", "{dir}", "--manifest", "{manifest}", "--out", "{tmp}/o"],
}


@pytest.mark.parametrize("argv", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
def test_unusable_path_exits_2_with_one_error_line(tmp_path, capsys, argv):
    manifest = build_corpus(tmp_path, 1)
    spfx = tmp_path / "one.spfx"
    write_spfx(FeatureMatrix(np.zeros((3, 4)), 10.0, "log_mel"), spfx)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("not a directory\n", encoding="utf-8")
    paths = {"tmp": tmp_path, "manifest": manifest, "spfx": spfx, "dir": tmp_path / "a-dir", "file": tmp_path / "a-file"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "line",
    ["frame_len_ms = inf", "frame_shift_ms = inf", "frame_len_ms = nan", "log_floor = nan", "fmin_hz = nan", "fmax_hz = inf"],
)
def test_non_finite_config_value_exits_2_before_creating_the_output(tmp_path, capsys, line):
    manifest = build_corpus(tmp_path, 1)
    config = tmp_path / "front-end.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_frame_shift_past_float32_exits_2_before_creating_the_output(tmp_path, capsys):
    # SPFX headers store the shift as float32, which 1e39 overflows
    manifest = build_corpus(tmp_path, 1)
    config = tmp_path / "front-end.cfg"
    config.write_text("frame_shift_ms = 1e39\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: frame_shift_ms must be at most the float32 maximum 3.4028234663852886e+38, got 1e+39\n"
    assert not out.exists()


def test_frame_shift_beyond_any_signal_gives_one_frame_per_utterance(tmp_path):
    # 1e17 ms is 1.6e18 samples at 16 kHz, a byte stride past int64; any step
    # of at least the signal length takes the same single frame.  The trees
    # differ only in the frame shift that each SPFX header records.
    manifest = build_corpus(tmp_path, 3)
    trees = {}
    for shift in (1e16, 1e17):
        config = tmp_path / f"shift-{shift:g}.cfg"
        config.write_text(f"frame_shift_ms = {shift:g}\n", encoding="utf-8")
        out = tmp_path / f"out-{shift:g}"
        assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]) == 0
        trees[shift] = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".spfx":
                features = read_spfx(path)
                assert features.frame_shift_ms == np.float32(shift)
                assert features.num_frames == 1
                trees[shift][path.name] = features.data.tobytes()
            else:
                trees[shift][path.name] = path.read_bytes()
    assert len(trees[1e17]) == 6
    assert trees[1e17] == trees[1e16]


def test_malformed_manifest_exits_2(tmp_path, capsys):
    manifest = tmp_path / "bad.tsv"
    manifest.write_text("one-field-only\n", encoding="utf-8")
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_bad_policy_string_exits_2(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 1)
    assert main([
        "augment", "--policy", "1,2,3", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_policy_width_above_2_64_exits_2_instead_of_hanging(tmp_path):
    # a max width of 2**65 makes the draw bound n = 2**65 + 1, whose rejection
    # limit (2**64 // n) * n is 0, so no draw is ever accepted; the child
    # process keeps a regression from hanging the suite
    manifest = build_corpus(tmp_path, 1, seconds=1.0)
    result = run_python([
        "-m", "specmask.cli", "augment", "--policy", f"0,0,{2**65},1",
        "--manifest", str(manifest), "--out", str(tmp_path / "o"),
    ])
    assert result.returncode == 2
    assert result.stderr.count("error:") == 1
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "o").exists()


def test_policy_width_2_64_minus_1_augments(tmp_path):
    manifest = build_corpus(tmp_path, 1, seconds=1.0)
    out = tmp_path / "o"
    assert main([
        "augment", "--policy", f"0,0,{2**64 - 1},1", "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    assert (out / "utt000.spfx").exists()


def test_missing_wav_is_per_utterance_failure(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 2)
    with manifest.open("a", encoding="utf-8") as fh:
        fh.write("ghost\tghost.wav\n")
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "failed: ghost" in captured.err
    assert "processed 2 utterances" in captured.out
    assert (out / "utt000.spfx").exists()
    assert not (out / "ghost.spfx").exists()



def test_n_mels_far_above_the_fft_bins_exits_2_without_allocating(tmp_path, capsys):
    # 10**15 + 2 mel edge points would need petabytes; the edge check refuses them first
    manifest = build_corpus(tmp_path, 1)
    config = tmp_path / "front-end.cfg"
    config.write_text(f"n_mels = {10**15}\n", encoding="utf-8")
    assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: 1000000000000002 mel edge points are not distinct after rounding to 512-point FFT bins; "
        "reduce n_mels or increase n_fft\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["extract", "augment", "stats"])
def test_a_config_no_wav_rate_can_pass_exits_2_before_its_output(tmp_path, capsys, command):
    manifest = build_corpus(tmp_path, 3)
    config = tmp_path / "front-end.cfg"
    config.write_text("n_mels = 80\n", encoding="utf-8")  # 82 edges over the 257 bins of a 512-point FFT collide
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--manifest", str(manifest), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: 82 mel edge points are not distinct after rounding to 512-point FFT bins; reduce n_mels or increase n_fft\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_when_every_wav_rate_fails_the_first_rates_error_exits_2(tmp_path, capsys):
    # 40 Hz rounds the frame step to 0 samples, 16 kHz collides the 82 mel edges; ghost.wav has no header to read
    manifest = build_corpus(tmp_path, 2)
    write_wav(tmp_path / "slow.wav", 0.3 * np.sin(np.arange(80) / 3.0), 40)
    manifest.write_text("ghost\tghost.wav\nslow\tslow.wav\n" + manifest.read_text(encoding="utf-8"), encoding="utf-8")
    config = tmp_path / "front-end.cfg"
    config.write_text("n_mels = 80\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frame length 1 and step 0 samples at 40 Hz")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "augment"])
def test_stats_of_other_channels_than_the_front_end_exit_2_over_wavs(tmp_path, capsys, command):
    manifest = build_corpus(tmp_path, 3)
    stats_path = tmp_path / "corpus.spfx-stats"
    golden_stats(stats_path, 80)
    out = tmp_path / "out"
    assert main([command, "--stats", str(stats_path), "--manifest", str(manifest), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stats cover 80 channels but features have 40\n"
    assert captured.out == ""
    assert not out.exists()


def test_stats_of_other_channels_fail_each_record_beside_an_spfx_record(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 2)
    write_spfx_raw(tmp_path / "in.spfx", np.ones((5, 16)), kind_code=1)
    with manifest.open("a", encoding="utf-8") as fh:
        fh.write("feat\tin.spfx\n")
    stats_path = tmp_path / "corpus.spfx-stats"
    golden_stats(stats_path, 80)
    out = tmp_path / "out"
    assert main(["extract", "--stats", str(stats_path), "--manifest", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "failed: utt000: stats cover 80 channels but features have 40",
        "failed: utt001: stats cover 80 channels but features have 40",
        "failed: feat: stats cover 80 channels but features have 16",
    ]
    assert list(out.iterdir()) == []


# Both sizes need more than 2**57 bytes, the largest x86-64 address space, so
# the allocation is refused at once and nothing is allocated.
def test_verify_trials_past_the_address_space_exit_2(capsys):
    assert main(["verify", "--trials", str(2**55)]) == 2  # 2**55 float64 counts
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate 256. PiB for an array with shape (36028797018963968,)")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_n_fft_past_the_address_space_exits_2(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 1)
    config = tmp_path / "front-end.cfg"
    config.write_text(f"n_fft = {2**50}\n", encoding="utf-8")  # an 18 x 2**50 float64 frame block
    assert main(["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate 144. PiB for an array with shape (18, 1125899906842624)")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, done",
    [("extract", "processed 3 utterances"), ("augment", "processed 3 utterances"), ("stats", "accumulated")],
)
def test_wav_whose_frame_step_rounds_to_0_samples_fails_only_that_record(tmp_path, capsys, command, done):
    # 10 ms at 40 Hz rounds to a 0-sample frame step
    manifest = build_corpus(tmp_path, 3)
    write_wav(tmp_path / "slow.wav", 0.3 * np.sin(np.arange(80) / 3.0), 40)
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text(lines[0] + "slow\tslow.wav\n" + "".join(lines[1:]), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("failed: slow: frame length 1 and step 0 samples at 40 Hz")
    assert len(captured.err.splitlines()) == 1
    assert done in captured.out

def test_stats_skips_and_reports_a_failing_record(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 3)
    (tmp_path / "utt001.wav").unlink()
    stats_path = tmp_path / "corpus.spfx-stats"
    assert main(["stats", "--manifest", str(manifest), "--out", str(stats_path)]) == 1
    captured = capsys.readouterr()
    assert "failed: utt001: " in captured.err
    assert "error:" not in captured.err
    loaded = [extract(read_wav(tmp_path / f"utt{i:03d}.wav"), DspConfig()) for i in (0, 2)]
    expected = accumulate_stats(loaded)
    assert f"accumulated {expected.count} frames over 40 channels" in captured.out
    # the container stores float32 rows
    stats = read_stats_container(stats_path)
    assert np.array_equal(stats.mean, expected.mean.astype(np.float32))
    assert np.array_equal(stats.variance, expected.variance.astype(np.float32))


def test_stats_with_no_loadable_record_exits_2(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 2)
    for i in range(2):
        (tmp_path / f"utt{i:03d}.wav").unlink()
    stats_path = tmp_path / "corpus.spfx-stats"
    assert main(["stats", "--manifest", str(manifest), "--out", str(stats_path)]) == 2
    err = capsys.readouterr().err
    assert "failed: utt000: " in err and "failed: utt001: " in err
    assert "error:" in err
    assert not stats_path.exists()


def test_extract_rejects_an_id_that_escapes_the_output_directory(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 1)
    with manifest.open("a", encoding="utf-8") as fh:
        fh.write("../escaped\tutt000.wav\n")
    out = tmp_path / "c" / "out" / "inner"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


PACKAGE_ERRORS = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.SpecmaskError)
]


@pytest.mark.parametrize("error", [*PACKAGE_ERRORS, OSError], ids=lambda cls: cls.__name__)
def test_exit_code_of_each_package_error(monkeypatch, capsys, error):
    # only a diverged training run exits 1; every other package error, and an unusable path, exits 2
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_verify", fail)
    assert main(["verify"]) == (1 if error is errors.DivergenceError else 2)
    assert capsys.readouterr().err == "error: boom\n"


def test_an_error_outside_the_package_propagates(monkeypatch):
    def fail(args):
        raise ValueError("not a package error")

    monkeypatch.setattr(cli, "_cmd_verify", fail)
    with pytest.raises(ValueError, match="not a package error"):
        main(["verify"])


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["extract", "--out", "somewhere"])
    assert excinfo.value.code == 2


def test_preset_is_not_an_option(tmp_path, capsys):
    # `--policy` takes a preset name as well as a literal F,mF,R,mR
    with pytest.raises(SystemExit) as excinfo:
        main(["augment", "--preset", "libri-best", "--manifest", "m.tsv", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --preset libri-best" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = set()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("specmask "):
                args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
                commands.add(args.command)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subparsers.choices)  # every subcommand has an example


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    write_wav(tmp_path / "utt.wav", 0.3 * np.sin(np.arange(16000) / 5.0), 16000)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["masked"].data.shape == namespace["features"].data.shape
    assert [m.axis for m in namespace["masks"]] == ["time", "time", "frequency"]


def test_help_describes_the_tool_not_its_imports(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "SpecAugment time and frequency masking of log-mel and MFCC features." in out
    assert "import" not in out and "handlers" not in out


HELP = ("help", False, argparse.SUPPRESS, None, None)
CORPUS = {"--config": ("config", False, None, None, None), "--manifest": ("manifest", True, None, None, None)}
OUT = {"--out": ("out", True, None, None, None)}
WORKERS = {"--workers": ("workers", False, 1, "int", None)}
POLICY = {"--policy": ("policy", False, None, None, None)}
STATS = {"--stats": ("stats", False, None, None, None)}
#: subcommand -> ({option strings: (dest, required, default, type name, choices)}, mutually exclusive groups)
PINNED_ARGUMENTS = {
    "extract": ({**CORPUS, **OUT, **WORKERS, **STATS}, []),
    "stats": ({**CORPUS, **OUT}, []),
    "augment": ({**CORPUS, **OUT, **WORKERS, **STATS, **POLICY, "--seed": ("seed", False, 0, "int", None)}, []),
    "slice": (
        {
            **OUT,
            "--manifest": ("manifest", True, None, None, None),
            "--fractions": ("fractions", True, None, None, None),
            "--seed": ("seed", False, 0, "int", None),
        },
        [],
    ),
    "render": (
        {**OUT, "--features": ("features", True, None, None, None), "--masks": ("masks", False, None, None, None)},
        [],
    ),
    "verify": ({"--trials": ("trials", False, 1_000_000, "int", None), "--seed": ("seed", False, 1, "int", None)}, []),
    "demo": (
        {
            **POLICY,
            "--epochs": ("epochs", False, None, "int", None),
            "--lr": ("lr", False, None, "float", None),
            "--seed": ("seed", False, None, "int", None),
            "--out": ("out", False, "curve.csv", None, None),
        },
        [],
    ),
}


def test_subcommand_arguments_are_pinned():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, parser in subparsers.choices.items():
        actions = {
            "/".join(a.option_strings): (a.dest, a.required, a.default, getattr(a.type, "__name__", None), a.choices)
            for a in parser._actions
        }
        groups = [sorted(a.option_strings[0] for a in g._group_actions) for g in parser._mutually_exclusive_groups]
        found[name] = (actions, groups)
    assert found == {
        name: ({"-h/--help": HELP, **actions}, groups) for name, (actions, groups) in PINNED_ARGUMENTS.items()
    }
