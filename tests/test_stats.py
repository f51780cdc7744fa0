"""Standardization statistics and the sampler-verification oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from specmask.errors import ConfigError, EmptyInputError
from specmask.features import FeatureMatrix
from specmask.masking import sample_axis_masks_batch
from specmask.rng import RngState, substream_batch
from specmask import stats
from specmask.stats import (
    MC_BLOCK_TRIALS,
    CorpusStats,
    accumulate_stats,
    exact_masked_mean,
    exact_masked_mean_closed,
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


@pytest.mark.parametrize("target", ["none", "input", "other"])
def test_standardize_writes_only_where_out_says(target):
    rng = np.random.default_rng(31)
    stats = CorpusStats(mean=rng.normal(size=5), variance=np.array([0.3, 2.0, 1e-9, 7.5, 1.0]), count=9)
    features = FeatureMatrix(data=rng.normal(size=(12, 5)), frame_shift_ms=10.0, kind="mfcc")
    before = features.data.tobytes()
    expected = (features.data - stats.mean) / np.sqrt(np.maximum(stats.variance, 1e-8))
    out = {"none": None, "input": features.data, "other": np.empty((12, 5))}[target]
    result = standardize(features, stats, out=out)
    assert result.data.tobytes() == expected.tobytes()
    assert result.kind == "standardized_mfcc"
    if out is None:
        assert not np.shares_memory(result.data, features.data)
    else:
        assert result.data is out
    if target != "input":
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
            assert exact_masked_mean_multi(max_width, 1, extent) == pytest.approx(
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


def test_exact_multi_refuses_large_instances():
    with pytest.raises(ConfigError, match="bound"):
        exact_masked_mean_multi(6, 8, 12)


def test_closed_form_equals_brute_force_on_every_feasible_cell():
    compared = 0
    for extent, max_width, count in itertools.product(range(1, 13), range(0, 7), range(1, 4)):
        try:
            brute = exact_masked_mean_multi(max_width, count, extent)
        except ConfigError:
            continue
        assert exact_masked_mean_closed(max_width, count, extent) == brute, (extent, max_width, count)
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
    assert exact_masked_mean_closed(max_width, count, extent) == exact_masked_mean_multi(max_width, count, extent)


@pytest.mark.parametrize(
    "max_width, count, extent, expected",
    [(100, 2, 3000, "98.09025024843264"), (100, 20, 1000, "626.6980047224476"), (27, 2, 80, "22.22637884267631")],
)
def test_closed_form_pinned_paper_scale_values(max_width, count, extent, expected):
    # the floats of the direct sum over every (position, start) pair; the brute force refuses the first two
    assert repr(exact_masked_mean_closed(max_width, count, extent)) == expected


def test_closed_form_covers_cells_the_brute_force_refuses():
    with pytest.raises(ConfigError):
        exact_masked_mean_multi(6, 8, 12)
    value = exact_masked_mean_closed(6, 8, 12)
    assert math.isfinite(value) and 0.0 < value < 12.0


def test_closed_form_rejects_empty_axis():
    for oracle in (exact_masked_mean_closed, exact_masked_mean_multi):
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
        counts = union_coverage(starts, lengths)
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
        ((2**31 + 5, 0), (3, 1), None),  # a start past the bound
        ((2**31 - 1, 0), (2, 1), None),  # an end past the bound
        ((2**31 + 1, 0), (0, 0), None),  # a zero-length interval past the bound
        ((2**31 - 3, 0), (3, 1), [4]),  # an end at the bound
        ((2**31, 0), (0, 1), [1]),  # a zero-length interval at the bound
        ((), (), []),  # no rows
    ],
)
def test_union_coverage_checks_its_2_31_bound(starts, lengths, expected):
    starts, lengths = (np.array(v, dtype=np.int64).reshape(-1, 2) for v in (starts, lengths))
    if expected is None:
        with pytest.raises(ValueError, match=r"2\*\*31"):
            union_coverage(starts, lengths)
    else:
        assert union_coverage(starts, lengths).tolist() == expected


def test_monte_carlo_rejects_extents_the_coverage_count_cannot_pack():
    with pytest.raises(ValueError, match=r"2\*\*31"):
        monte_carlo_masked_mean(3, 2, 2**31 + 1, 2000, RngState(1))


def test_monte_carlo_at_the_largest_extent():
    # one mask of width 0..3 almost never clamps on 2**31 positions: mean 1.5
    report = monte_carlo_masked_mean(3, 1, 2**31, 2000, RngState(1))
    assert abs(report.mc_mean - 1.5) <= 4 * report.mc_stderr


def test_monte_carlo_at_the_largest_width_bound():
    # width bound 2**64: uint64 width draws, which clamp at the axis end
    exact = exact_masked_mean_closed(2**64 - 1, 2, 10)
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
        assert row.exact == exact_masked_mean_multi(row.max_width, row.count, row.extent)


def test_stderr_formula():
    report = monte_carlo_masked_mean(4, 1, 10, 1000, RngState(9))
    assert report.mc_stderr >= 0
    # reconstruct from a tiny case: all-zero coverage has zero stderr
    zero = monte_carlo_masked_mean(0, 3, 5, 500, RngState(9))
    assert zero.mc_stderr == 0.0
    assert math.isfinite(report.mc_mean)
