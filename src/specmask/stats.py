"""Corpus standardization statistics and sampler-verification oracles.

The exact oracles work from the sampler's distribution directly and never
call the sampler: a closed form in O(extent * count) integer steps, whose
count-1 case is the single-mask mean, and a brute-force enumeration that
serves as the closed form's test oracle.  The Monte Carlo harness drives the
real sampler.  The closed form and Monte Carlo are compared within 3 standard
errors, which is what `verify` reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, EmptyInputError
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
MC_BLOCK_TRIALS = 1 << 14


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
        if not (np.isfinite(self.mean).all() and np.isfinite(self.variance).all()):
            raise ValueError("mean and variance must be finite")
        if np.any(self.variance < 0):
            raise ValueError("variance must be nonnegative per channel")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def num_channels(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class MaskFractionReport:
    """Monte Carlo masked-position statistics."""

    mc_mean: float
    mc_stderr: float


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
        deviations = data - batch_mean
        batch_m2 = np.square(deviations, out=deviations).sum(axis=0)
        delta = batch_mean - mean
        total = count + batch_count
        mean = mean + delta * (batch_count / total)
        m2 = m2 + batch_m2 + delta**2 * (count * batch_count / total)
        count = total
    if mean is None or m2 is None:
        raise EmptyInputError("cannot accumulate statistics over an empty feature stream")
    variance = np.maximum(m2 / count, 0.0)  # merge rounding can dip just below zero
    return CorpusStats(mean=mean, variance=variance, count=count)


def standardize(features: FeatureMatrix, stats: CorpusStats, out: np.ndarray | None = None) -> FeatureMatrix:
    """Per-channel (x - mean) / sqrt(max(variance, 1e-8)).

    Without `out` the result is a new array and the input is left untouched.
    With `out`, a float64 array of the features' shape, the result is written
    there and the returned matrix holds `out` itself; `out=features.data`
    standardizes in place, so the caller must own that array.
    """
    if stats.num_channels != features.num_channels:
        raise ConfigError(
            f"stats cover {stats.num_channels} channels but features have {features.num_channels}"
        )
    scale = np.sqrt(np.maximum(stats.variance, VARIANCE_FLOOR))
    data = np.subtract(features.data, stats.mean, out=out)
    # a divide, not a multiply by 1/scale, which would round differently
    np.divide(data, scale, out=data)
    return FeatureMatrix(
        data=data,
        frame_shift_ms=features.frame_shift_ms,
        kind="standardized_" + features.kind.removeprefix("standardized_"),
    )


def exact_masked_mean(max_width: int, extent: int) -> float:
    """Exact E[masked positions] for one mask: uniform width {0..max_width},
    uniform start {0..extent-1}, length clamped to min(width, extent - start).
    The count-1 case of `exact_masked_mean_closed`."""
    return exact_masked_mean_closed(max_width, 1, extent)


def exact_masked_mean_multi(max_width: int, count: int, extent: int) -> float:
    """Exact E[positions covered by the union of `count` masks], by brute force.

    Start rejection-resampling makes every ordered tuple of distinct starts
    equally likely, so the enumeration walks all width tuples crossed with all
    ordered distinct start tuples at equal weight.  Counts above the extent
    are capped exactly as the sampler caps them.
    """
    if extent < 1:
        raise ConfigError(f"extent must be >= 1, got {extent}")
    effective = min(count, extent)
    if effective == 0:
        return 0.0
    num_width_tuples = (max_width + 1) ** effective
    num_start_tuples = math.perm(extent, effective)
    size = num_width_tuples * num_start_tuples
    if size > MAX_ENUMERATION:
        raise ConfigError(
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


def exact_masked_mean_closed(max_width: int, count: int, extent: int) -> float:
    """Exact E[positions covered by the union of `count` masks], in closed form.

    The starts are a uniform k-subset of the positions (k = min(count,
    extent)) and the widths are independent, so position p stays uncovered
    with probability e_k(a_0p..a_{extent-1,p}) / ((max_width+1)^k * C(extent, k)),
    where e_k is the elementary symmetric polynomial and a_sp counts the
    widths with which a mask starting at s misses p: max_width+1 when s > p,
    min(p-s+1, max_width+1) otherwise.  Those miss counts are 1..q once each
    (q = min(p+1, max_width)) and max_width+1 for the other extent-q starts,
    so e_k = sum_j e_j(1..q) * C(extent-q, k-j) * (max_width+1)^(k-j), with
    e_j(1..q) extended by one factor each time q grows: O(extent*k) steps.
    Integer arithmetic throughout, so the result is the correctly rounded
    float of the same rational `exact_masked_mean_multi` enumerates.
    """
    if extent < 1:
        raise ConfigError(f"extent must be >= 1, got {extent}")
    k = min(count, extent)
    if k == 0:
        return 0.0
    widths = max_width + 1
    small = [1] + [0] * k  # e_0..e_k of the miss counts 1..q
    uncovered = 0  # sum over positions of e_k(a_0p..a_{extent-1,p})
    for p in range(extent):
        q = min(p + 1, max_width)
        if q == p + 1:  # the miss count q joins the small ones
            for j in range(k, 0, -1):
                small[j] += q * small[j - 1]
        uncovered += sum(small[j] * math.comb(extent - q, k - j) * widths ** (k - j) for j in range(k + 1))
    denominator = widths**k * math.comb(extent, k)
    return (extent * denominator - uncovered) / denominator


def _as_uint64(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).view(np.uint64)


def union_coverage(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions covered by the union of each row's intervals [start, start + length).

    Interval arithmetic: sorts each row's intervals by start, carrying their
    ends along, counts the first one whole, and then adds the part of every
    later interval that reaches past the running max of the ends before it.
    Starts and lengths must be nonnegative int64, which is not checked; an end
    past 2**31 raises ValueError.  Returns one int64 count per row.
    """
    # one uint64 key per interval, start in the high half and end in the low
    # one, so a compare-exchange moves the end with its start.  uint64 sums of
    # nonnegative int64s cannot wrap, so the ends' maxima check every position.
    # Work column by column over all rows at once
    keys, top = [], 0
    for start, length in zip(_as_uint64(starts).T, _as_uint64(lengths).T):
        key = start + length  # the end
        top = max(top, int(key.max(initial=0)))
        key |= start << 32
        keys.append(key)
    if top > 1 << 31:
        raise ValueError(f"union_coverage positions must be at most 2**31, got an end of {top}")
    if not keys:
        return np.zeros(starts.shape[0], dtype=np.int64)
    for i in range(1, len(keys)):  # insertion-sort network over the columns
        for j in range(i, 0, -1):
            keys[j - 1], keys[j] = np.minimum(keys[j - 1], keys[j]), np.maximum(keys[j - 1], keys[j])
    # the keys are this call's own arrays, so they are unpacked in place
    covered = keys[0] >> 32
    reach = keys[0]
    reach &= 0xFFFFFFFF
    np.subtract(reach, covered, out=covered)
    for key in keys[1:]:
        # the interval adds max(end, reach) - max(start, reach), which is 0 when
        # it ends inside the reach; the first max is also the new reach
        start = key >> 32
        np.maximum(start, reach, out=start)
        key &= 0xFFFFFFFF
        np.maximum(key, reach, out=reach)
        covered += reach
        covered -= start
    return covered.view(np.int64)


def monte_carlo_masked_mean(
    max_width: int, count: int, extent: int, trials: int, rng: RngState
) -> MaskFractionReport:
    """Run the axis sampler `trials` times and report the mean masked-position count.

    Each trial gets its own substream derived from (rng.state, trial index),
    so results do not depend on how trials are batched; they are drawn and
    counted in blocks of MC_BLOCK_TRIALS to bound memory.  Standard error is
    the sample standard deviation over trials divided by sqrt(trials).  The
    extent may be at most 2**31, the bound of union_coverage.
    """
    if trials < MIN_TRIALS:
        raise ConfigError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    if extent > 1 << 31:
        raise ConfigError(f"extent must be <= 2**31 for the coverage count, got {extent}")
    counts = np.empty(trials)
    for first in range(0, trials, MC_BLOCK_TRIALS):
        last = min(first + MC_BLOCK_TRIALS, trials)
        states = substream_batch(rng.state, first, last)
        starts, lengths = sample_axis_masks_batch(max_width, count, extent, states)[:2]
        del states  # only the masks are needed from here on
        counts[first:last] = union_coverage(starts, lengths)
    mc_mean = float(counts.mean())
    mc_stderr = float(counts.std(ddof=1) / math.sqrt(trials))
    return MaskFractionReport(mc_mean=mc_mean, mc_stderr=mc_stderr)


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
    """Compare sampler Monte Carlo against the closed-form exact value over a parameter grid.

    A cell failing the 3-standard-error check is rerun once with a fresh
    substream; only two consecutive failures mark it failed.  A seed outside
    [0, 2**64) raises ConfigError, from derive_utterance_seed.
    """
    rows: list[GridRow] = []
    for extent in extents:
        for max_width in max_widths:
            for count in counts:
                exact = exact_masked_mean_closed(max_width, count, extent)
                passed = False
                reran = False
                for attempt in range(2):
                    state = derive_utterance_seed(seed, f"verify:{extent}:{max_width}:{count}:{attempt}")
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
