"""Corpus standardization statistics and sampler-verification oracles.

The exact oracles enumerate the sampler's distribution directly and never
call the sampler; the Monte Carlo harness drives the real sampler.  The two
routes are compared within 3 standard errors, which is what `verify` reports.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, EmptyInputError, EnumerationTooLargeError
from .features import FeatureMatrix
from .masking import sample_axis_masks_batch
from .rng import RngState, derive_utterance_seed, substream_batch

VARIANCE_FLOOR = 1e-8

#: Feasibility bound for the brute-force multi-mask oracle.
MAX_ENUMERATION = 10**7

#: Fewest trials the Monte Carlo harness accepts.
MIN_TRIALS = 100

#: Trials drawn and counted together by the Monte Carlo harness.  Results do
#: not depend on it: every trial draws from its own substream.
MC_BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True)
class CorpusStats:
    """Per-channel mean and population variance over `count` frames."""

    mean: np.ndarray
    variance: np.ndarray
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "variance", np.asarray(self.variance, dtype=np.float64))
        if self.mean.ndim != 1 or self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance must be 1-D arrays of equal length")
        if np.any(self.variance < 0):
            raise ValueError("variance must be nonnegative per channel")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")

    @property
    def num_channels(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class MaskFractionReport:
    """Monte Carlo masked-position statistics, with the exact value when available."""

    exact_mean_masked: float | None
    mc_mean: float
    mc_stderr: float
    trials: int

    def __post_init__(self) -> None:
        if self.mc_stderr < 0:
            raise ValueError("mc_stderr must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def accumulate_stats(features: Iterable[FeatureMatrix]) -> CorpusStats:
    """Single-pass per-channel mean/variance over a stream of feature matrices.

    Uses pairwise (Chan) merging of per-matrix moments, so the result is
    independent of stream order up to ~1e-9.
    """
    count = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None
    for matrix in features:
        data = matrix.data
        if mean is None:
            mean = np.zeros(data.shape[1])
            m2 = np.zeros(data.shape[1])
        elif data.shape[1] != mean.shape[0]:
            raise ConfigError(f"channel count changed mid-stream: {mean.shape[0]} then {data.shape[1]}")
        batch_count = data.shape[0]
        batch_mean = data.mean(axis=0)
        batch_m2 = ((data - batch_mean) ** 2).sum(axis=0)
        delta = batch_mean - mean
        total = count + batch_count
        mean = mean + delta * (batch_count / total)
        m2 = m2 + batch_m2 + delta**2 * (count * batch_count / total)
        count = total
    if mean is None or m2 is None:
        raise EmptyInputError("cannot accumulate statistics over an empty feature stream")
    variance = np.maximum(m2 / count, 0.0)  # merge rounding can dip just below zero
    return CorpusStats(mean=mean, variance=variance, count=count)


_STANDARDIZED_KIND = {
    "log_mel": "standardized_log_mel",
    "mfcc": "standardized_mfcc",
    "standardized_log_mel": "standardized_log_mel",
    "standardized_mfcc": "standardized_mfcc",
}


def standardize(features: FeatureMatrix, stats: CorpusStats) -> FeatureMatrix:
    """Per-channel (x - mean) / sqrt(max(variance, 1e-8))."""
    if stats.count < 1:
        raise ValueError("stats must cover at least one frame")
    if stats.num_channels != features.num_channels:
        raise ConfigError(
            f"stats cover {stats.num_channels} channels but features have {features.num_channels}"
        )
    scale = np.sqrt(np.maximum(stats.variance, VARIANCE_FLOOR))
    return FeatureMatrix(
        data=(features.data - stats.mean) / scale,
        frame_shift_ms=features.frame_shift_ms,
        kind=_STANDARDIZED_KIND[features.kind],
    )


def exact_masked_mean(max_width: int, extent: int) -> float:
    """Exact E[masked positions] for one mask: uniform width {0..max_width},
    uniform start {0..extent-1}, length clamped to min(width, extent - start)."""
    if extent < 1:
        raise ValueError(f"extent must be >= 1, got {extent}")
    total = sum(min(w, extent - s) for w in range(max_width + 1) for s in range(extent))
    return total / ((max_width + 1) * extent)


def exact_masked_mean_multi(max_width: int, count: int, extent: int) -> float:
    """Exact E[positions covered by the union of `count` masks], by brute force.

    Start rejection-resampling makes every ordered tuple of distinct starts
    equally likely, so the enumeration walks all width tuples crossed with all
    ordered distinct start tuples at equal weight.  Counts above the extent
    are capped exactly as the sampler caps them.
    """
    if extent < 1:
        raise ValueError(f"extent must be >= 1, got {extent}")
    effective = min(count, extent)
    if effective == 0:
        return 0.0
    num_width_tuples = (max_width + 1) ** effective
    num_start_tuples = math.perm(extent, effective)
    size = num_width_tuples * num_start_tuples
    if size > MAX_ENUMERATION:
        raise EnumerationTooLargeError(
            f"enumeration size {size} exceeds the {MAX_ENUMERATION} bound "
            f"((max_width+1)^count * extent!/(extent-count)! with max_width={max_width}, "
            f"count={effective}, extent={extent})"
        )
    total = 0
    widths = list(itertools.product(range(max_width + 1), repeat=effective))
    for starts in itertools.permutations(range(extent), effective):
        for width_tuple in widths:
            covered = 0
            for s, w in zip(starts, width_tuple):
                length = min(w, extent - s)
                covered |= ((1 << length) - 1) << s
            total += covered.bit_count()
    return total / size


def union_coverage(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions covered by the union of each row's intervals [start, start + length).

    Interval arithmetic: sorts each row's intervals by start, carrying their
    ends along, keeps a running max of the ends, and adds the part of every
    interval that reaches past it.  Positions must be below 2**31.  Returns
    one int64 count per row.
    """
    # one int64 key per interval, start in the high half, so a compare-exchange
    # moves the end with its start; work column by column over all rows at once
    keys = [(start << 32) | (start + length) for start, length in zip(starts.T, lengths.T)]
    for i in range(1, len(keys)):  # insertion-sort network over the columns
        for j in range(i, 0, -1):
            keys[j - 1], keys[j] = np.minimum(keys[j - 1], keys[j]), np.maximum(keys[j - 1], keys[j])
    covered = np.zeros(starts.shape[0], dtype=np.int64)
    reach = 0
    for key in keys:
        start, end = key >> 32, key & 0xFFFFFFFF
        covered += np.maximum(end - np.maximum(start, reach), 0)
        reach = np.maximum(reach, end)
    return covered


def monte_carlo_masked_mean(
    max_width: int, count: int, extent: int, trials: int, rng: RngState
) -> MaskFractionReport:
    """Run the axis sampler `trials` times and report the mean masked-position count.

    Each trial gets its own substream derived from (rng.state, trial index),
    so results do not depend on how trials are batched; they are drawn and
    counted in blocks of MC_BLOCK_TRIALS to bound memory.  Standard error is
    the sample standard deviation over trials divided by sqrt(trials).
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    counts = np.empty(trials)
    for first in range(0, trials, MC_BLOCK_TRIALS):
        last = min(first + MC_BLOCK_TRIALS, trials)
        states = substream_batch(rng.state, np.arange(first, last))
        starts, lengths = sample_axis_masks_batch(max_width, count, extent, states)[:2]
        del states  # only the masks are needed from here on
        counts[first:last] = union_coverage(starts, lengths)
    mc_mean = float(counts.mean())
    mc_stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    exact = exact_masked_mean(max_width, extent) if min(count, extent) == 1 else None
    return MaskFractionReport(exact_mean_masked=exact, mc_mean=mc_mean, mc_stderr=mc_stderr, trials=trials)


@dataclass(frozen=True)
class GridRow:
    """One verify-grid cell: exact value vs Monte Carlo, pass within 3 stderr."""

    extent: int
    max_width: int
    count: int
    exact: float
    mc_mean: float
    mc_stderr: float
    trials: int
    passed: bool
    reran: bool


def verify_grid(
    extents: Iterable[int],
    max_widths: Iterable[int],
    counts: Iterable[int],
    trials: int,
    seed: int,
) -> list[GridRow]:
    """Compare sampler Monte Carlo against the exact oracle over a parameter grid.

    A cell failing the 3-standard-error check is rerun once with a fresh
    substream; only two consecutive failures mark it failed.
    """
    rows: list[GridRow] = []
    for extent in extents:
        for max_width in max_widths:
            for count in counts:
                exact = exact_masked_mean_multi(max_width, count, extent)
                passed = False
                reran = False
                for attempt in range(2):
                    state = derive_utterance_seed(seed, f"verify:{extent}:{max_width}:{count}:{attempt}")
                    with warnings.catch_warnings():
                        # the grid deliberately includes capped cells; the
                        # oracle caps identically, so the warning is expected
                        warnings.simplefilter("ignore", RuntimeWarning)
                        report = monte_carlo_masked_mean(max_width, count, extent, trials, RngState(state))
                    passed = abs(report.mc_mean - exact) <= 3.0 * report.mc_stderr
                    if passed:
                        break
                    reran = attempt == 0
                rows.append(
                    GridRow(
                        extent=extent,
                        max_width=max_width,
                        count=count,
                        exact=exact,
                        mc_mean=report.mc_mean,
                        mc_stderr=report.mc_stderr,
                        trials=trials,
                        passed=passed,
                        reran=reran,
                    )
                )
    return rows
