"""Manifest parsing and seeded nested slicing."""

from __future__ import annotations

import math

import pytest

from specmask.errors import ConfigError, ManifestError
from specmask.manifest import (
    Manifest,
    ManifestRecord,
    format_manifest,
    parse_manifest,
    slice_manifest,
)
from specmask.rng import RngState, uniform


def make_manifest(n: int) -> Manifest:
    return Manifest(records=tuple(ManifestRecord(f"utt{i:06d}", f"utt{i:06d}.wav") for i in range(n)))


def test_empty_manifest():
    assert len(parse_manifest("")) == 0
    assert len(parse_manifest("# only a comment\n\n")) == 0


def test_two_records_in_order():
    m = parse_manifest("a\tx.wav\nb\ty.wav\n")
    assert [r.utterance_id for r in m.records] == ["a", "b"]
    assert [r.path for r in m.records] == ["x.wav", "y.wav"]


def test_optional_frame_count():
    # a third field, once an unchecked frame count, is rejected naming its line
    with pytest.raises(ManifestError, match="line 2: expected 2 tab-separated fields, got 3"):
        parse_manifest("a\tx.wav\nb\ty.spfx\t128\n")


def test_comments_and_blanks_skipped():
    text = "# header\n\na\tx.wav\n   \n# middle\nb\ty.wav\n"
    m = parse_manifest(text)
    assert len(m) == 2


def test_duplicate_id_cites_second_line():
    text = "# 1\na\tx.wav\na\tz.wav\n"
    with pytest.raises(ManifestError, match="line 3"):
        parse_manifest(text)
    # with the duplicate pushed to line 7
    text = "# 1\n# 2\na\tx.wav\nb\ty.wav\nc\tz.wav\n# 6\na\tdup.wav\n"
    with pytest.raises(ManifestError, match="line 7.*'a'"):
        parse_manifest(text)


def test_malformed_lines():
    with pytest.raises(ManifestError, match="line 1"):
        parse_manifest("only-one-field\n")
    with pytest.raises(ManifestError, match="line 2"):
        parse_manifest("a\tx.wav\nb\ty.wav\t3\textra\n")
    with pytest.raises(ManifestError, match="empty id or path"):
        parse_manifest("\tx.wav\n")


@pytest.mark.parametrize("utterance_id", ["../escaped", "..", "a..b", "sub/utt", "/abs", "sub\\utt", "nul\0id"])
def test_id_that_could_escape_the_output_directory_is_rejected(utterance_id):
    text = f"ok\tx.wav\n# comment\n{utterance_id}\ty.wav\n"
    with pytest.raises(ManifestError, match="line 3"):
        parse_manifest(text)


def test_ids_with_dots_and_dashes_are_accepted():
    m = parse_manifest("spk1.utt-2_a\tx.wav\n.hidden\ty.wav\n")
    assert [r.utterance_id for r in m.records] == ["spk1.utt-2_a", ".hidden"]


def test_format_round_trip():
    text = "a\tx.wav\nb\ty.spfx\n"
    assert format_manifest(parse_manifest(text)) == text


def test_full_fraction_is_a_permutation():
    m = make_manifest(20)
    (sliced,) = slice_manifest(m, [1.0], seed=5)
    assert len(sliced) == 20
    assert sorted(r.utterance_id for r in sliced.records) == sorted(r.utterance_id for r in m.records)
    # a fixed seed actually shuffles 20 records
    assert [r.utterance_id for r in sliced.records] != [r.utterance_id for r in m.records]


def test_full_scale_slice_sizes():
    m = make_manifest(94_500)
    slices = slice_manifest(m, [0.25, 0.5, 0.75, 1.0], seed=1)
    assert [len(s) for s in slices] == [23_625, 47_250, 70_875, 94_500]


def test_nesting_prefix_property():
    m = make_manifest(101)
    small, large = slice_manifest(m, [0.3, 0.9], seed=9)
    assert large.records[: len(small)] == small.records


def test_ceil_arithmetic():
    m = make_manifest(10)
    slices = slice_manifest(m, [0.11, 0.5, 1.0], seed=2)
    assert [len(s) for s in slices] == [math.ceil(1.1), 5, 10]


def test_slice_determinism_and_seed_sensitivity():
    m = make_manifest(50)
    a = slice_manifest(m, [0.5], seed=3)[0]
    b = slice_manifest(m, [0.5], seed=3)[0]
    c = slice_manifest(m, [0.5], seed=4)[0]
    assert a.records == b.records
    assert a.records != c.records


def test_fisher_yates_fixture():
    # replay the shuffle independently from raw uniform draws
    m = make_manifest(8)
    expected = list(m.records)
    rng = RngState(77)
    for i in range(7, 0, -1):
        j, rng = uniform(rng, i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    (sliced,) = slice_manifest(m, [1.0], seed=77)
    assert list(sliced.records) == expected


def test_fraction_validation():
    m = make_manifest(4)
    with pytest.raises(ConfigError):
        slice_manifest(m, [0.0, 1.0], seed=0)
    with pytest.raises(ConfigError):
        slice_manifest(m, [1.5], seed=0)
    with pytest.raises(ConfigError):
        slice_manifest(m, [0.5, 0.25], seed=0)
    with pytest.raises(ConfigError):
        slice_manifest(m, [], seed=0)
