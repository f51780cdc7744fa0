"""The input generator is a pure function of the seed."""

from __future__ import annotations

import wave
from pathlib import Path

import gen


def tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_wav_corpus_same_seed_same_bytes(tmp_path):
    a = gen.write_wav_corpus(tmp_path / "a", 4, seed=7)
    b = gen.write_wav_corpus(tmp_path / "b", 4, seed=7)
    c = gen.write_wav_corpus(tmp_path / "c", 4, seed=8)
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")
    assert a.utterances == b.utterances


def test_spfx_corpus_same_seed_same_bytes(tmp_path):
    gen.write_spfx_corpus(tmp_path / "a", 3, 80, seed=7)
    gen.write_spfx_corpus(tmp_path / "b", 3, 80, seed=7)
    gen.write_spfx_corpus(tmp_path / "c", 3, 80, seed=8)
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")


def test_wav_corpus_matches_expected_shapes(tmp_path):
    corpus = gen.write_wav_corpus(tmp_path, 5, seed=3)
    lines = corpus.manifest.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == [u.utterance_id for u in corpus.utterances]
    for utt in corpus.utterances:
        with wave.open(str(tmp_path / f"{utt.utterance_id}.wav"), "rb") as fh:
            assert (fh.getnchannels(), fh.getsampwidth(), fh.getframerate()) == (1, 2, gen.SAMPLE_RATE)
            samples = fh.getnframes()
        assert utt.frames == (samples - gen.FRAME_LEN) // gen.FRAME_STEP + 1
        assert 2.0 <= utt.audio_s <= 30.0


def test_spfx_corpus_header_and_stats(tmp_path):
    corpus, stats_path = gen.write_spfx_corpus(tmp_path, 2, 80, seed=3)
    for utt in corpus.utterances:
        raw = (tmp_path / f"{utt.utterance_id}.spfx").read_bytes()
        magic, version, channels, frames, shift, kind = gen.SPFX_HEADER.unpack_from(raw, 0)
        assert (magic, version, channels, frames, shift, kind) == (b"SPFX", 1, 80, utt.frames, 10.0, gen.KIND_MFCC)
        assert len(raw) == gen.SPFX_HEADER.size + 4 * frames * channels
    raw = stats_path.read_bytes()
    assert gen.SPFX_HEADER.unpack_from(raw, 0)[2:4] == (80, 2)
    assert gen.SPFX_HEADER.unpack_from(raw, 0)[5] == gen.KIND_STATS


def test_lengths_do_not_depend_on_the_seed(tmp_path):
    a = gen.write_wav_corpus(tmp_path / "a", 6, seed=1)
    b = gen.write_wav_corpus(tmp_path / "b", 6, seed=2)
    assert [u.frames for u in a.utterances] == [u.frames for u in b.utterances]
    lengths = gen.utterance_lengths(24)
    assert 2.0 <= lengths.min() and lengths.max() <= 30.0
