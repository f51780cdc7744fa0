"""Corpus standardization statistics and sampler-verification oracles.

The exact oracle works from the sampler's distribution directly and never
calls the sampler: a closed form in O(min(extent, max_width) * count**2)
integer steps, whose count-1 case is the single-mask mean.  The tests check
it against a brute-force enumeration of their own.  It refuses a bad (width,
count, extent) triple through `masking.check_axis`, the samplers' own check,
and Monte Carlo accepts the same triples; it also refuses a triple whose walk
would take more than 10**7 steps.  The Monte Carlo harness drives the
real sampler.  The closed form and Monte Carlo are compared within 3 standard
errors, which is what `verify` reports.

`standardize` runs each record's blocks through one loop that rounds every
value once: every block goes through float64 rows copied back in place.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptyInputError
from .features import FeatureMatrix, FeatureRows
from .masking import check_axis, sample_axis_masks_batch
from .rng import RngState, derive_utterance_seed, substream_batch

VARIANCE_FLOOR = 1e-8

#: Fewest trials the Monte Carlo harness accepts.
MIN_TRIALS = 100

#: Trials drawn and counted together by the Monte Carlo harness.  Results do
#: not depend on it: every trial draws from its own substream.
MC_BLOCK_TRIALS = 1 << 14

#: Rows of a block that `standardize`'s loop computes together in float64 and
#: copies back into the block, or hands on as float64 if one overflows the
#: block's float32.  Results do not depend on it; 256 and 1024 ran about as
#: fast on a 1300 x 80 float32 record, 32 to 128 slower.
_STANDARDIZE_ROWS = 256

#: Most steps, min(extent, max(max_width, 1)) * (min(count, extent) + 1)**2,
#: the exact oracle walks.  It counts steps, not time: a step's big-int
#: binomials and width powers grow with the extent's bit length, so near the
#: bound (max_width, count, extent) = (100, 300, 10**4) took 0.45 s and
#: (10, 999, 2**62) took 5.2 s on a 2-core Xeon.
_MAX_EXACT_STEPS = 10**7


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

    def check_channels(self, num_channels: int) -> None:
        """Raise ConfigError unless these stats cover `num_channels` channels."""
        if self.num_channels != num_channels:
            raise ConfigError(f"stats cover {self.num_channels} channels but features have {num_channels}")


@dataclass(frozen=True)
class MaskFractionReport:
    """Monte Carlo masked-position statistics."""

    mc_mean: float
    mc_stderr: float


def accumulate_stats(features: Iterable[FeatureMatrix]) -> CorpusStats:
    """Single-pass per-channel mean/variance over a stream of feature matrices.

    Uses pairwise (Chan) merging of per-matrix moments, so the result is
    independent of stream order up to ~1e-9.  Each matrix is reduced as one
    float64 copy, which then holds its deviations: a float32 matrix gives
    the bytes of its float64 widening.  (A float64 reduction straight over a
    float32 column casts it in 8192-value buffers and sums each buffer on
    its own, which can round differently.)
    """
    count = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None
    for matrix in features:
        deviations = matrix.data.astype(np.float64)
        if mean is None:
            mean = np.zeros(deviations.shape[1])
            m2 = np.zeros(deviations.shape[1])
        elif deviations.shape[1] != mean.shape[0]:
            raise ConfigError(f"channel count changed mid-stream: {mean.shape[0]} then {deviations.shape[1]}")
        batch_count = deviations.shape[0]
        batch_mean = deviations.mean(axis=0)
        np.subtract(deviations, batch_mean, out=deviations)
        batch_m2 = np.square(deviations, out=deviations).sum(axis=0)
        delta = batch_mean - mean
        total = count + batch_count
        mean = mean + delta * (batch_count / total)
        m2 = m2 + batch_m2 + delta**2 * (count * batch_count / total)
        count = total
        del matrix, deviations  # not held while the stream makes the next matrix
    if mean is None or m2 is None:
        raise EmptyInputError("cannot accumulate statistics over an empty feature stream")
    variance = np.maximum(m2 / count, 0.0)  # merge rounding can dip just below zero
    return CorpusStats(mean=mean, variance=variance, count=count)


def _standardized_blocks(blocks: Iterable[np.ndarray], mean: np.ndarray, scale: np.ndarray) -> Iterator[np.ndarray]:
    """Each block standardized in place through `wide`, as `standardize` says."""
    wide = np.empty((_STANDARDIZE_ROWS, len(mean)))
    for block in blocks:
        done = 0  # rows of the block handed on so far
        for first in range(0, len(block), len(wide)):
            part = block[first : first + len(wide)]
            rows = wide[: len(part)]
            np.copyto(rows, part)  # widened first: mixed-dtype operands ran slower
            np.subtract(rows, mean, out=rows)
            np.divide(rows, scale, out=rows)
            try:
                with np.errstate(over="raise"):  # not around a yield: the setting would reach the consumer
                    np.copyto(part, rows)
            except FloatingPointError:  # the writer names the value unless a mask zeroes it
                if done < first:
                    yield block[done:first]
                yield rows
                done = first + len(rows)
        if done < len(block):
            yield block[done:]


def standardize(features: FeatureMatrix | FeatureRows, stats: CorpusStats) -> FeatureMatrix | FeatureRows:
    """Per-channel (x - mean) / sqrt(max(variance, 1e-8)), computed in float64.

    A FeatureMatrix is standardized in a float64 copy; its input is left
    untouched.  FeatureRows come back as FeatureRows whose blocks are
    standardized in place as they are taken, in one loop: every block goes
    through float64 rows _STANDARDIZE_ROWS at a time, each part copied back
    once, as the writer rounds a float64 value.  A part that overflows
    float32 goes on as its float64 rows between the block's rows before and
    after it, for the writer to report unless a mask covers it.
    """
    stats.check_channels(features.num_channels)
    # both paths divide: a multiply by 1/scale would round differently
    scale = np.sqrt(np.maximum(stats.variance, VARIANCE_FLOOR))
    kind = "standardized_" + features.kind.removeprefix("standardized_")
    if isinstance(features, FeatureRows):
        return replace(features, kind=kind, blocks=_standardized_blocks(features.blocks, stats.mean, scale))
    data = features.data.astype(np.float64)
    next(_standardized_blocks([data], stats.mean, scale))
    return FeatureMatrix(data=data, frame_shift_ms=features.frame_shift_ms, kind=kind)


def exact_masked_mean(max_width: int, extent: int) -> float:
    """Exact E[masked positions] for one mask: uniform width {0..max_width},
    uniform start {0..extent-1}, length clamped to min(width, extent - start).
    The count-1 case of `exact_masked_mean_multi`."""
    return exact_masked_mean_multi(max_width, 1, extent)


def exact_masked_mean_multi(max_width: int, count: int, extent: int) -> float:
    """Exact E[positions covered by the union of `count` masks], in closed form.

    The starts are a uniform k-subset of the positions (k = min(count,
    extent)) and the widths are independent, so position p stays uncovered
    with probability e_k(a_0p..a_{extent-1,p}) / ((max_width+1)^k * C(extent, k)),
    where e_k is the elementary symmetric polynomial and a_sp counts the
    widths with which a mask starting at s misses p: max_width+1 when s > p,
    min(p-s+1, max_width+1) otherwise.  Those miss counts are 1..q once each
    (q = min(p+1, max_width)) and max_width+1 for the other extent-q starts,
    so e_k = sum_j e_j(1..q) * C(extent-q, k-j) * (max_width+1)^(k-j), with
    e_j(1..q) extended by one factor each time q grows.  From position
    max_width - 1 on, q and so e_k stay the same, so the walk stops there
    and counts the rest of the axis in one product: min(extent, max(max_width, 1))
    positions of (k + 1)**2 big-int steps each.  A triple of more than
    10**7 steps raises ConfigError before the walk starts.  The bound counts
    steps, not time: a step costs more as the extent's bit length grows, and
    near the bound (max_width, count, extent) = (100, 300, 10**4) took 0.45 s
    and (10, 999, 2**62) took 5.2 s on a 2-core Xeon.  Integer
    arithmetic throughout, so the result is the correctly rounded float of
    the exact rational mean.
    """
    max_width, count, extent = check_axis(max_width, count, extent)
    k = min(count, extent)
    if k == 0:
        return 0.0
    stop = min(extent, max(max_width, 1))
    steps = stop * (k + 1) ** 2
    if steps > _MAX_EXACT_STEPS:
        raise ConfigError(
            f"exact oracle walk of {steps} steps exceeds the {_MAX_EXACT_STEPS} bound "
            f"(min(extent, max(max_width, 1)) * (min(count, extent) + 1)**2 with max_width={max_width}, "
            f"count={count}, extent={extent})"
        )
    widths = max_width + 1
    small = [1] + [0] * k  # e_0..e_k of the miss counts 1..q
    uncovered = 0  # sum over positions of e_k(a_0p..a_{extent-1,p})
    for p in range(stop):
        q = min(p + 1, max_width)
        if q == p + 1:  # the miss count q joins the small ones
            for j in range(k, 0, -1):
                small[j] += q * small[j - 1]
        term = sum(small[j] * math.comb(extent - q, k - j) * widths ** (k - j) for j in range(k + 1))
        uncovered += term
    uncovered += (extent - stop) * term
    denominator = widths**k * math.comb(extent, k)
    return (extent * denominator - uncovered) / denominator


def union_coverage(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions covered by the union of each row's intervals [start, start + length).

    A position p is covered by (starts <= p) - (ends <= p) intervals, a count
    that does not depend on which end belongs to which start.  So the starts
    and the ends are sorted separately, and the i-th smallest start and end
    bound an interval whose starts and ends both ascend: each adds
    end[i] - max(start[i], end[i-1]).  Starts and lengths must be nonnegative
    int64 arrays whose sums fit int64, which is not checked; neither is
    written.  Returns one int64 count per row.
    """
    # work column by column over all rows at once, on this call's own arrays
    begins = [start.copy() for start in starts.T]
    ends = [start + length for start, length in zip(starts.T, lengths.T)]
    if not ends:
        return np.zeros(starts.shape[0], dtype=np.int64)
    spare = np.empty_like(ends[0])
    for keys in (begins, ends):
        for i in range(1, len(keys)):  # insertion-sort network over the columns, in place
            for j in range(i, 0, -1):
                low, high = keys[j - 1], keys[j]
                np.minimum(low, high, out=spare)
                np.maximum(low, high, out=high)
                keys[j - 1], spare = spare, low
    covered = ends[0] - begins[0]
    for begin, reach, end in zip(begins[1:], ends, ends[1:]):
        np.maximum(begin, reach, out=begin)
        covered += end
        covered -= begin
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
        raise ConfigError(f"trials must be >= {MIN_TRIALS}, got {trials}")
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
                exact = exact_masked_mean_multi(max_width, count, extent)
                for attempt in range(2):
                    state = derive_utterance_seed(seed, f"verify:{extent}:{max_width}:{count}:{attempt}")
                    report = monte_carlo_masked_mean(max_width, count, extent, trials, RngState(state))
                    passed = abs(report.mc_mean - exact) <= 3.0 * report.mc_stderr
                    if passed:
                        break
                rows.append(GridRow(
                    extent=extent, max_width=max_width, count=count, exact=exact, mc_mean=report.mc_mean,
                    mc_stderr=report.mc_stderr, trials=trials, passed=passed, reran=attempt == 1,
                ))
    return rows
