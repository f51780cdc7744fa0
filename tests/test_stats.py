"""Standardization statistics and the sampler-verification oracles."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_masked_mean, run_python
from specmask.errors import ConfigError, EmptyInputError, FormatError
from specmask.features import FeatureMatrix
from specmask.masking import MaskSpec, sample_axis_masks, sample_axis_masks_batch
from specmask.render import render_masks_pgm
from specmask.rng import RngState, substream_batch
from specmask.spfx import write_spfx
from specmask import stats
from specmask.stats import (
    MC_BLOCK_TRIALS,
    CorpusStats,
    accumulate_stats,
    exact_masked_mean,
    exact_masked_mean_multi,
    monte_carlo_masked_mean,
    standardize,
    union_coverage,
    verify_grid,
)


def matrices_from(data: np.ndarray, split: int) -> list[FeatureMatrix]:
    return [
        FeatureMatrix(data=chunk, frame_shift_ms=10.0, kind="log_mel")
        for chunk in np.array_split(data, split)
    ]


# --------------------------------------------------------------- accumulate


def test_accumulate_zero_corpus():
    stats = accumulate_stats(matrices_from(np.zeros((30, 4)), 3))
    assert np.all(stats.mean == 0.0)
    assert np.all(stats.variance == 0.0)
    assert stats.count == 30


def test_accumulate_hand_case():
    data = np.array([[0.0], [2.0]])
    stats = accumulate_stats(matrices_from(data, 2))
    assert stats.mean.tolist() == [1.0]
    assert stats.variance.tolist() == [1.0]  # population variance


def test_accumulate_matches_two_pass_oracle():
    rng = np.random.default_rng(10)
    data = rng.normal(loc=3.0, scale=2.5, size=(1000, 8))
    stats = accumulate_stats(matrices_from(data, 7))
    naive_mean = data.mean(axis=0)
    naive_var = ((data - naive_mean) ** 2).mean(axis=0)
    assert np.allclose(stats.mean, naive_mean, rtol=1e-9, atol=1e-12)
    assert np.allclose(stats.variance, naive_var, rtol=1e-9, atol=1e-12)


def test_accumulate_is_bit_identical_to_the_two_temporary_formula():
    # the squared deviations are formed in one array; the bytes are those of
    # ((data - batch_mean) ** 2).sum(axis=0) merged the same way
    rng = np.random.default_rng(13)
    chunks = [
        FeatureMatrix(data=rng.normal(loc=-2.0, scale=4.0, size=(rows, 80)), frame_shift_ms=10.0, kind="mfcc")
        for rows in (1, 2, 37, 64, 65, 300, 3, 1499)
    ]
    count, mean, m2 = 0, np.zeros(80), np.zeros(80)
    for matrix in chunks:
        data = matrix.data
        batch_count = data.shape[0]
        batch_mean = data.mean(axis=0)
        batch_m2 = ((data - batch_mean) ** 2).sum(axis=0)
        delta = batch_mean - mean
        total = count + batch_count
        mean = mean + delta * (batch_count / total)
        m2 = m2 + batch_m2 + delta**2 * (count * batch_count / total)
        count = total
    result = accumulate_stats(chunks)
    assert result.count == count
    assert result.mean.tobytes() == mean.tobytes()
    assert result.variance.tobytes() == np.maximum(m2 / count, 0.0).tobytes()


def test_accumulate_order_independent():
    rng = np.random.default_rng(11)
    chunks = matrices_from(rng.normal(size=(600, 5)), 6)
    forward = accumulate_stats(chunks)
    backward = accumulate_stats(reversed(chunks))
    assert np.allclose(forward.mean, backward.mean, atol=1e-9)
    assert np.allclose(forward.variance, backward.variance, atol=1e-9)


def test_accumulate_empty_stream():
    with pytest.raises(EmptyInputError):
        accumulate_stats([])


def test_accumulate_channel_mismatch():
    a = FeatureMatrix(data=np.zeros((2, 3)), frame_shift_ms=10.0, kind="log_mel")
    b = FeatureMatrix(data=np.zeros((2, 4)), frame_shift_ms=10.0, kind="log_mel")
    with pytest.raises(ConfigError):
        accumulate_stats([a, b])


# --------------------------------------------------------------- standardize


def test_standardize_mean_features_give_zero():
    stats = CorpusStats(mean=np.array([2.0, -1.0]), variance=np.array([4.0, 9.0]), count=10)
    features = FeatureMatrix(data=np.tile([2.0, -1.0], (5, 1)), frame_shift_ms=10.0, kind="log_mel")
    out = standardize(features, stats)
    assert np.all(out.data == 0.0)
    assert out.kind == "standardized_log_mel"


def test_standardize_round_trip_moments():
    rng = np.random.default_rng(12)
    data = rng.normal(loc=-4.0, scale=3.0, size=(5000, 6))
    chunks = matrices_from(data, 5)
    stats = accumulate_stats(chunks)
    restandardized = [standardize(m, stats) for m in chunks]
    after = accumulate_stats(restandardized)
    assert np.all(np.abs(after.mean) < 1e-6)
    assert np.all(np.abs(after.variance - 1.0) < 1e-6)


def test_standardize_dead_channel():
    stats = CorpusStats(mean=np.array([5.0]), variance=np.array([0.0]), count=3)
    features = FeatureMatrix(data=np.full((4, 1), 5.0), frame_shift_ms=10.0, kind="mfcc")
    out = standardize(features, stats)
    assert np.all(out.data == 0.0)
    assert out.kind == "standardized_mfcc"


def test_standardize_returns_a_new_matrix_and_leaves_its_input_untouched():
    rng = np.random.default_rng(31)
    stats = CorpusStats(mean=rng.normal(size=5), variance=np.array([0.3, 2.0, 1e-9, 7.5, 1.0]), count=9)
    features = FeatureMatrix(data=rng.normal(size=(12, 5)), frame_shift_ms=10.0, kind="mfcc")
    before = features.data.tobytes()
    expected = (features.data - stats.mean) / np.sqrt(np.maximum(stats.variance, 1e-8))
    result = standardize(features, stats)
    assert result.data.tobytes() == expected.tobytes()
    assert result.kind == "standardized_mfcc"
    assert not np.shares_memory(result.data, features.data)
    assert features.data.tobytes() == before


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("log_mel", "standardized_log_mel"),
        ("mfcc", "standardized_mfcc"),
        ("standardized_log_mel", "standardized_log_mel"),
        ("standardized_mfcc", "standardized_mfcc"),
    ],
)
def test_standardize_output_kind(kind, expected):
    stats = CorpusStats(mean=np.zeros(2), variance=np.ones(2), count=1)
    features = FeatureMatrix(data=np.ones((3, 2)), frame_shift_ms=10.0, kind=kind)
    assert standardize(features, stats).kind == expected


def test_standardize_channel_mismatch():
    stats = CorpusStats(mean=np.zeros(3), variance=np.ones(3), count=1)
    features = FeatureMatrix(data=np.zeros((2, 4)), frame_shift_ms=10.0, kind="log_mel")
    with pytest.raises(ConfigError):
        standardize(features, stats)


def test_corpus_stats_validation():
    cases = [
        ([0.0, 0.0], [-1.0, 0.0], 1),
        ([0.0, 0.0], [0.0, 0.0, 0.0], 1),
        ([0.0, np.nan], [1.0, 1.0], 1),
        ([0.0, np.inf], [1.0, 1.0], 1),
        ([0.0, 0.0], [1.0, np.inf], 1),
        ([0.0, 0.0], [1.0, np.nan], 1),
        ([0.0, 0.0], [1.0, 1.0], 0),
    ]
    for mean, variance, count in cases:
        with pytest.raises(ValueError):
            CorpusStats(mean=np.array(mean), variance=np.array(variance), count=count)


# ------------------------------------------------------- float32 features

STANDARDIZE_ROWS = stats._STANDARDIZE_ROWS


def float32_and_widened(rows: int, channels: int, seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """A float32 matrix and a float64 matrix of the same values."""
    rng = np.random.default_rng(seed)
    loc, scale = rng.uniform(-30.0, 30.0, channels), rng.uniform(0.01, 40.0, channels)
    narrow = rng.normal(loc=loc, scale=scale, size=(rows, channels)).astype(np.float32)
    return (
        FeatureMatrix(data=narrow, frame_shift_ms=10.0, kind="mfcc"),
        FeatureMatrix(data=narrow.astype(np.float64), frame_shift_ms=10.0, kind="mfcc"),
    )


@pytest.mark.parametrize("channels", [1, 80])
@pytest.mark.parametrize(
    "rows", [1, STANDARDIZE_ROWS - 1, STANDARDIZE_ROWS, STANDARDIZE_ROWS + 1, 3 * STANDARDIZE_ROWS + 7]
)
def test_float32_features_give_the_bytes_of_their_float64_widening(tmp_path, rows, channels):
    narrow, wide = float32_and_widened(rows, channels, seed=100 * rows + channels)
    narrow_tail, wide_tail = float32_and_widened(rows + 3, channels, seed=7)
    corpus = accumulate_stats([wide, wide_tail])
    narrow_corpus = accumulate_stats([narrow, narrow_tail])
    assert narrow_corpus.mean.tobytes() == corpus.mean.tobytes()
    assert narrow_corpus.variance.tobytes() == corpus.variance.tobytes()

    corpus.variance[0] = 1e-9  # below VARIANCE_FLOOR
    expected = standardize(wide, corpus).data
    assert standardize(narrow, corpus).data.tobytes() == expected.tobytes()
    # float32 rows are standardized in place, each value rounded once, as the
    # writer rounds a float64 value; float64 rows keep the float64 bytes
    in_place = narrow.data.copy()
    blocks = list(standardize(replace(narrow, data=in_place).rows(), corpus).blocks)
    assert all(block.dtype == np.float32 and np.shares_memory(block, in_place) for block in blocks)
    assert in_place.tobytes() == expected.astype(np.float32).tobytes()
    wide_rows = standardize(replace(wide, data=wide.data.copy()).rows(), corpus)
    assert np.concatenate(list(wide_rows.blocks)).tobytes() == expected.tobytes()

    # 0, 1 and the values on either side of each halfway point between two gray
    # levels, where a rescale in float32 would round to the other level
    halves = (np.arange(255, dtype=np.float32) + np.float32(0.5)) / np.float32(255)
    grid = np.concatenate([[0, 1], halves, np.nextafter(halves, 0), np.nextafter(halves, 1)], dtype=np.float32)
    levels = np.resize(grid, (rows, channels))
    masks = [MaskSpec("time", rows // 3, rows // 4), MaskSpec("frequency", channels // 2, channels // 40)]
    render_masks_pgm(replace(narrow, data=levels), masks, tmp_path / "narrow.pgm")
    render_masks_pgm(replace(wide, data=levels.astype(np.float64)), masks, tmp_path / "wide.pgm")
    assert (tmp_path / "narrow.pgm").read_bytes() == (tmp_path / "wide.pgm").read_bytes()


def test_stats_of_a_long_float32_column_are_those_of_its_widening():
    # a float64 reduction straight over a float32 column casts it in 8192-value
    # buffers and sums each on its own, which rounds this column's mean differently
    narrow = np.random.default_rng(2).normal(3.0, 2.0, size=(1 << 16, 1)).astype(np.float32)
    wide = narrow.astype(np.float64)
    assert narrow.mean(axis=0, dtype=np.float64).tobytes() != wide.mean(axis=0).tobytes()
    result = accumulate_stats([FeatureMatrix(data=narrow, frame_shift_ms=10.0, kind="mfcc")])
    expected = accumulate_stats([FeatureMatrix(data=wide, frame_shift_ms=10.0, kind="mfcc")])
    assert result.mean.tobytes() == expected.mean.tobytes()
    assert result.variance.tobytes() == expected.variance.tobytes()


@pytest.mark.parametrize("warning_policy", ["default", "error"])
def test_standardized_float32_rows_report_an_overflow_by_its_position(tmp_path, warning_policy):
    data = np.ones((2 * STANDARDIZE_ROWS, 3), dtype=np.float32)
    data[STANDARDIZE_ROWS + 5, 2] = 3e38  # about 9.5e42 once standardized against a variance of 1e-9
    corpus = CorpusStats(mean=np.zeros(3), variance=np.array([1.0, 1.0, 1e-9]), count=1)
    rows = standardize(FeatureMatrix(data=data, frame_shift_ms=10.0, kind="mfcc").rows(), corpus)
    with warnings.catch_warnings():
        warnings.simplefilter(warning_policy)
        with pytest.raises(FormatError, match=f"at row {STANDARDIZE_ROWS + 5}, column 2 is not finite as float32"):
            write_spfx(rows, tmp_path / "big.spfx")
    assert not (tmp_path / "big.spfx").exists()


# ------------------------------------------------------------- exact oracles


def test_exact_masked_mean_zero_width():
    assert exact_masked_mean(0, 10) == 0.0


def test_exact_masked_mean_reference_values():
    # inner sums over s for w = 0..4 and extent 10: 0, 10, 19, 27, 34 -> 90/50
    assert exact_masked_mean(4, 10) == 1.8
    assert exact_masked_mean(1, 1) == 0.5


def test_exact_masked_mean_closed_form_cross_check():
    # independent formula: E[min(w, extent - s)] averaged over uniform w and s
    for max_width, extent in itertools.product(range(0, 7), range(1, 13)):
        total = 0
        for w in range(max_width + 1):
            for s in range(extent):
                total += w if s <= extent - w else extent - s
        expected = total / ((max_width + 1) * extent)
        assert exact_masked_mean(max_width, extent) == pytest.approx(expected, abs=0)


def test_exact_multi_zero_count():
    assert exact_masked_mean_multi(4, 0, 10) == 0.0


def test_exact_multi_consistent_with_single():
    for max_width in range(0, 7):
        for extent in range(1, 13):
            assert brute_force_masked_mean(max_width, 1, extent) == pytest.approx(
                exact_masked_mean(max_width, extent), abs=1e-12
            )


def test_exact_multi_count_capped():
    # count above the extent behaves exactly like count == extent
    assert exact_masked_mean_multi(2, 5, 3) == exact_masked_mean_multi(2, 3, 3)


def test_exact_multi_small_case_by_hand():
    # extent 2, max_width 1, count 2: starts are orderings of {0,1};
    # each mask covers its start iff its width is 1 (clamped at the end)
    value = exact_masked_mean_multi(1, 2, 2)
    total = 0
    for w0, w1 in itertools.product((0, 1), repeat=2):
        for s0, s1 in ((0, 1), (1, 0)):
            covered = set()
            for s, w in ((s0, w0), (s1, w1)):
                covered.update(range(s, s + min(w, 2 - s)))
            total += len(covered)
    assert value == pytest.approx(total / 8, abs=0)


def test_closed_form_equals_brute_force_on_every_feasible_cell():
    compared = 0
    for extent, max_width, count in itertools.product(range(1, 13), range(0, 7), range(1, 4)):
        try:
            brute = brute_force_masked_mean(max_width, count, extent)
        except ConfigError:
            continue
        assert exact_masked_mean_multi(max_width, count, extent) == brute, (extent, max_width, count)
        compared += 1
    assert compared == 252


@pytest.mark.parametrize(
    "max_width, count, extent",
    [
        (4, 0, 10),
        (0, 0, 1),
        (2, 5, 3),
        (3, 9, 4),
        (6, 2, 1),
        # paper-policy widths (masks up to 100 frames, two of them) on axes the brute force accepts
        (100, 1, 3000),
        (40, 2, 20),
        (27, 2, 40),
    ],
)
def test_closed_form_zero_and_capped_counts(max_width, count, extent):
    assert exact_masked_mean_multi(max_width, count, extent) == brute_force_masked_mean(max_width, count, extent)


@pytest.mark.parametrize(
    "max_width, count, extent, expected",
    [
        (100, 2, 3000, "98.09025024843264"),
        (100, 20, 1000, "626.6980047224476"),
        (27, 2, 80, "22.22637884267631"),
        (100, 20, 3000, "849.1286629532627"),
        (10**6, 2, 10**6, "533333.71666665"),
    ],
)
def test_closed_form_pinned_paper_scale_values(max_width, count, extent, expected):
    # the floats of the direct sum over every (position, start) pair, and for the last two of the
    # walk before its step bound: the largest paper-scale cell and a 9 * 10**6-step walk, which the
    # bound admits.  The brute force refuses all but the third.
    assert repr(exact_masked_mean_multi(max_width, count, extent)) == expected


@pytest.mark.parametrize("max_width", [0, 1, 3, 100])
def test_single_mask_mean_at_the_largest_extent(max_width):
    # the walk stops at position max_width - 1 and adds the rest of the axis as one product.
    # Reference: for extent >= w, a width w fits whole at extent - w + 1 starts and clamps to
    # 1..w-1 at the last w - 1
    extent = 2**63 - 1
    total = sum((extent - w + 1) * w + w * (w - 1) // 2 for w in range(max_width + 1))
    assert exact_masked_mean(max_width, extent) == total / ((max_width + 1) * extent)


def test_closed_form_covers_cells_the_brute_force_refuses():
    with pytest.raises(ConfigError, match="bound"):
        brute_force_masked_mean(6, 8, 12)
    value = exact_masked_mean_multi(6, 8, 12)
    assert math.isfinite(value) and 0.0 < value < 12.0


def test_exact_multi_refuses_large_instances():
    # no enumeration bound: check_axis refuses an extent past int64 or a width past the
    # rng's 2**64 draw bound, before the walk's step bound is reached
    with pytest.raises(ConfigError, match=r"extent must be <= 2\*\*63 - 1, got"):
        exact_masked_mean_multi(6, 8, 2**63)
    with pytest.raises(ConfigError, match=r"max_width must be <= 2\*\*64 - 1, got"):
        exact_masked_mean_multi(2**64, 8, 12)


EXACT_WALKS_PAST_THE_BOUND = {
    # about 2**63 positions
    "top-width-and-extent": ("exact_masked_mean_multi(2**64 - 1, 1, 2**63 - 1)", 2**65 - 4, (2**64 - 1, 1, 2**63 - 1)),
    "verify-grid": ("verify_grid([2**63 - 1], [2**64 - 1], [1], 200, 0)", 2**65 - 4, (2**64 - 1, 1, 2**63 - 1)),
    # two positions of 10**4 big-int sums each
    "many-masks": ("exact_masked_mean_multi(2, 10**4, 10**4)", 2 * 10001**2, (2, 10**4, 10**4)),
}


@pytest.mark.parametrize("call, steps, triple", EXACT_WALKS_PAST_THE_BOUND.values(), ids=EXACT_WALKS_PAST_THE_BOUND.keys())
def test_exact_oracle_refuses_a_walk_past_its_step_bound(call, steps, triple):
    # in a child process, so that a walk that never ends fails the test instead of hanging the suite
    code = (
        "from specmask.errors import ConfigError\n"
        "from specmask.stats import exact_masked_mean_multi, verify_grid\n"
        f"try:\n    {call}\nexcept ConfigError as exc:\n    print(exc)\n"
    )
    result = run_python(["-c", code], timeout=30)
    max_width, count, extent = triple
    assert result.stdout == (
        f"exact oracle walk of {steps} steps exceeds the 10000000 bound (min(extent, max(max_width, 1)) * "
        f"(min(count, extent) + 1)**2 with max_width={max_width}, count={count}, extent={extent})\n"
    )
    assert result.returncode == 0


AXIS_ENTRY_POINTS = {
    "sample_axis_masks": lambda w, c, e: sample_axis_masks(w, c, e, "time", RngState(0)),
    "sample_axis_masks_batch": lambda w, c, e: sample_axis_masks_batch(w, c, e, np.arange(4, dtype=np.uint64)),
    "exact_masked_mean_multi": exact_masked_mean_multi,
    # the closed form as `verify_grid` reaches it for a one-cell grid's exact column
    "exact_masked_mean_closed": lambda w, c, e: verify_grid([e], [w], [c], trials=200, seed=0)[0].exact,
    "brute_force_masked_mean": brute_force_masked_mean,
    "monte_carlo_masked_mean": lambda w, c, e: monte_carlo_masked_mean(w, c, e, 200, RngState(0)),
}


@pytest.mark.parametrize("entry", AXIS_ENTRY_POINTS)
@pytest.mark.parametrize(
    "triple, message",
    [
        ((-1, 1, 5), "max_width must be >= 0, got -1"),
        ((2, -1, 5), "count must be >= 0, got -1"),
        ((2, 1, 0), "extent must be >= 1, got 0"),
    ],
    ids=["negative-width", "negative-count", "empty-axis"],
)
def test_samplers_and_oracles_refuse_a_bad_axis_alike(entry, triple, message):
    with pytest.raises(ConfigError) as excinfo:
        AXIS_ENTRY_POINTS[entry](*triple)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("entry", AXIS_ENTRY_POINTS)
def test_samplers_and_oracles_refuse_a_width_above_the_draw_bound(entry):
    # a width draw is uniform on {0..max_width}, a bound the rng caps at 2**64
    with pytest.raises(ConfigError) as excinfo:
        AXIS_ENTRY_POINTS[entry](2**64, 1, 5)
    assert str(excinfo.value) == "max_width must be <= 2**64 - 1, got 18446744073709551616"


@pytest.mark.parametrize("entry", AXIS_ENTRY_POINTS)
def test_samplers_and_oracles_refuse_an_extent_above_the_draw_bound(entry):
    # every start and end must fit int64, the batch sampler's and the coverage count's type,
    # which bounds the extent below the rng's 2**64 start draw bound
    with pytest.raises(ConfigError) as excinfo:
        AXIS_ENTRY_POINTS[entry](2, 1, 2**63)
    assert str(excinfo.value) == "extent must be <= 2**63 - 1, got 9223372036854775808"


@pytest.mark.parametrize("entry", AXIS_ENTRY_POINTS)
@pytest.mark.parametrize("triple", [(2.5, 1, 5), (2, 1.0, 5), (2, 1, 5.0)], ids=["width", "count", "extent"])
def test_samplers_and_oracles_refuse_a_non_integer_axis_value(entry, triple):
    with pytest.raises(ConfigError) as excinfo:
        AXIS_ENTRY_POINTS[entry](*triple)
    assert str(excinfo.value) == f"max_width, count and extent must be integers, got {triple}"


@pytest.mark.parametrize("entry", AXIS_ENTRY_POINTS)
def test_numpy_integer_axis_values_act_as_python_ints(entry):
    draw = AXIS_ENTRY_POINTS[entry]
    np.testing.assert_equal(draw(np.int64(3), np.uint8(2), np.int32(7)), draw(3, 2, 7))


def test_top_width_as_numpy_uint64_draws_as_python_int():
    # max_width + 1 must not wrap to 0 in uint64 arithmetic
    states = np.arange(4, dtype=np.uint64)
    np.testing.assert_equal(
        sample_axis_masks_batch(np.uint64(2**64 - 1), 1, 5, states), sample_axis_masks_batch(2**64 - 1, 1, 5, states)
    )
    assert sample_axis_masks(np.uint64(2**64 - 1), 1, 5, "time", RngState(0)) == sample_axis_masks(
        2**64 - 1, 1, 5, "time", RngState(0)
    )


def test_closed_form_rejects_empty_axis():
    for oracle in (exact_masked_mean_multi, brute_force_masked_mean):
        with pytest.raises(ConfigError, match="extent must be >= 1"):
            oracle(3, 1, 0)
    with pytest.raises(ConfigError, match="extent must be >= 1"):
        exact_masked_mean(3, 0)


# ------------------------------------------------------------- Monte Carlo


def dense_coverage(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reference union size: mark every covered position of a row, then count."""
    extent = int((starts + lengths).max(initial=0))
    covered = np.zeros((starts.shape[0], extent), dtype=bool)
    for row, (row_starts, row_lengths) in enumerate(zip(starts.tolist(), lengths.tolist())):
        for start, length in zip(row_starts, row_lengths):
            covered[row, start : start + length] = True
    return covered.sum(axis=1)


@pytest.mark.parametrize(
    "intervals, expected",
    [
        ([(0, 3), (2, 3)], 5),  # overlapping
        ([(1, 6), (2, 2)], 6),  # nested
        ([(2, 2), (1, 6)], 6),  # nested, larger one listed second
        ([(0, 2), (2, 3)], 5),  # touching
        ([(4, 0), (1, 1)], 1),  # zero-length
        ([(3, 0), (3, 0)], 0),  # only zero-length
        ([(3, 2), (4, 1)], 2),  # clamped at the end of a 5-position axis
        ([(0, 1), (2, 1), (4, 1), (6, 1)], 4),  # disjoint
        ([(5, 1), (0, 7), (3, 0), (8, 2)], 9),  # unsorted, nested and zero-length
    ],
)
def test_union_coverage_hand_cases(intervals, expected):
    starts = np.array([[s for s, _ in intervals]], dtype=np.int64)
    lengths = np.array([[n for _, n in intervals]], dtype=np.int64)
    assert dense_coverage(starts, lengths).tolist() == [expected]
    assert union_coverage(starts, lengths).tolist() == [expected]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_union_coverage_matches_dense_reference(k):
    rng = np.random.default_rng(40 + k)
    for extent, max_width in [(1, 0), (1, 3), (4, 2), (7, 6), (12, 3), (12, 12)]:
        starts = rng.integers(0, extent, size=(500, k))
        widths = rng.integers(0, max_width + 1, size=(500, k))
        lengths = np.minimum(widths, extent - starts)
        before = starts.copy(), lengths.copy()
        counts = union_coverage(starts, lengths)
        assert np.array_equal(starts, before[0]) and np.array_equal(lengths, before[1])  # inputs not written
        assert counts.dtype == np.int64
        assert np.array_equal(counts, dense_coverage(starts, lengths))


def test_monte_carlo_blocks_match_one_pass():
    max_width, count, extent, trials, seed = 3, 2, 8, MC_BLOCK_TRIALS + 1, 12
    report = monte_carlo_masked_mean(max_width, count, extent, trials, RngState(seed))
    states = substream_batch(seed, 0, trials)
    starts, lengths, _ = sample_axis_masks_batch(max_width, count, extent, states)
    counts = dense_coverage(starts, lengths).astype(np.float64)
    assert report.mc_mean == float(counts.mean())
    assert report.mc_stderr == float(counts.std(ddof=1) / math.sqrt(trials))


def test_monte_carlo_block_size_never_changes_the_report(monkeypatch):
    reports = []
    for block in (1 << 8, 1 << 14, 1 << 16):
        monkeypatch.setattr(stats, "MC_BLOCK_TRIALS", block)
        reports.append(monte_carlo_masked_mean(5, 2, 11, 40_000, RngState(31)))
    assert reports[0] == reports[1] == reports[2]


def test_monte_carlo_zero_width():
    report = monte_carlo_masked_mean(0, 1, 10, 1000, RngState(1))
    assert report.mc_mean == 0.0
    assert report.mc_stderr == 0.0
    assert exact_masked_mean(0, 10) == 0.0


def test_monte_carlo_agrees_with_exact_single():
    report = monte_carlo_masked_mean(4, 1, 10, 1_000_000, RngState(2))
    assert exact_masked_mean(4, 10) == 1.8
    assert abs(report.mc_mean - 1.8) < 3 * report.mc_stderr
    assert report.mc_stderr < 0.01


def test_monte_carlo_agrees_with_exact_multi():
    exact = exact_masked_mean_multi(2, 2, 4)
    report = monte_carlo_masked_mean(2, 2, 4, 1_000_000, RngState(3))
    assert abs(report.mc_mean - exact) < 3 * report.mc_stderr


@pytest.mark.parametrize(
    "starts, lengths, expected",
    [
        ((2**31 + 5, 0), (3, 1), [4]),  # a start past 2**31
        ((2**31 - 1, 0), (2, 1), [3]),  # an end past 2**31
        ((2**31 + 1, 0), (0, 0), [0]),  # a zero-length interval past 2**31
        ((2**31 - 3, 0), (3, 1), [4]),  # an end at 2**31
        ((2**31, 0), (0, 1), [1]),  # a zero-length interval at 2**31
        ((), (), []),  # no rows
        ((2**63 - 4, 2**63 - 6), (3, 4), [5]),  # ends at the largest int64
    ],
)
def test_union_coverage_checks_its_2_31_bound(starts, lengths, expected):
    # 2**31 is no bound: every position whose end fits int64 counts alike
    starts, lengths = (np.array(v, dtype=np.int64).reshape(-1, 2) for v in (starts, lengths))
    assert union_coverage(starts, lengths).tolist() == expected


def test_monte_carlo_past_2_31():
    # two masks of width 0..3 almost never overlap or clamp on 2**31 + 1 positions: mean 3
    report = monte_carlo_masked_mean(3, 2, 2**31 + 1, 2000, RngState(1))
    assert abs(report.mc_mean - 3.0) <= 4 * report.mc_stderr


def test_monte_carlo_at_the_largest_extent():
    # one mask of width 0..3 almost never clamps on 2**63 - 1 positions: mean 1.5
    report = monte_carlo_masked_mean(3, 1, 2**63 - 1, 2000, RngState(1))
    assert abs(report.mc_mean - 1.5) <= 4 * report.mc_stderr


def test_monte_carlo_at_the_largest_width_bound():
    # width bound 2**64: uint64 width draws, which clamp at the axis end
    exact = exact_masked_mean_multi(2**64 - 1, 2, 10)
    report = monte_carlo_masked_mean(2**64 - 1, 2, 10, 20_000, RngState(4))
    assert abs(report.mc_mean - exact) <= 4 * report.mc_stderr


def test_monte_carlo_requires_trials():
    with pytest.raises(ConfigError, match="trials must be >= 100, got 99"):
        monte_carlo_masked_mean(1, 1, 4, 99, RngState(0))


def test_monte_carlo_is_deterministic():
    a = monte_carlo_masked_mean(3, 2, 8, 10_000, RngState(5))
    b = monte_carlo_masked_mean(3, 2, 8, 10_000, RngState(5))
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_grid_refuses_a_seed_outside_u64(seed):
    with pytest.raises(ConfigError, match="seed"):
        verify_grid(range(1, 2), range(1), (1,), 200, seed)


def test_verify_grid_smoke():
    rows = verify_grid(range(1, 4), range(0, 3), (1, 2), 20_000, seed=7)
    assert len(rows) == 18
    assert all(row.passed for row in rows)
    # exact values are embedded per cell
    for row in rows:
        assert row.exact == brute_force_masked_mean(row.max_width, row.count, row.extent)


def test_verify_grid_at_the_largest_extents():
    rows = verify_grid((2**40, 2**63 - 1), (3, 100), (1, 2), 4000, seed=1)
    assert len(rows) == 8
    assert all(row.passed for row in rows)


def test_verify_grid_marks_a_cell_that_failed_twice_as_rerun(monkeypatch):
    attempts = []

    def wrong_mean(*args):
        attempts.append(args)
        return stats.MaskFractionReport(mc_mean=99.0, mc_stderr=0.01)

    monkeypatch.setattr(stats, "monte_carlo_masked_mean", wrong_mean)
    (row,) = verify_grid([4], [2], [1], 1000, 1)
    assert len(attempts) == 2
    assert (row.passed, row.reran) == (False, True)


def test_stderr_formula():
    report = monte_carlo_masked_mean(4, 1, 10, 1000, RngState(9))
    assert report.mc_stderr >= 0
    # reconstruct from a tiny case: all-zero coverage has zero stderr
    zero = monte_carlo_masked_mean(0, 3, 5, 500, RngState(9))
    assert zero.mc_stderr == 0.0
    assert math.isfinite(report.mc_mean)
