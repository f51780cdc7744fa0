"""Time/frequency mask sampling and application.

Masks zero out whole frame intervals [t, t+tau) or channel intervals
[f, f+phi).  Widths are uniform on {0..max_width} inclusive, start positions
uniform over the whole axis with end-clamping, and start positions within one
call are pairwise distinct (rejection-resampled).  Both samplers refuse a
bad (width, count, extent) triple through `check_axis`, the check the exact
oracle shares.  All randomness flows through explicit RngState values, so
augmentation is reproducible and safe to parallelize across utterances.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FormatError, MaskBoundsError
from .features import FeatureMatrix, FeatureRows
from .rng import MASK64, RngState, uniform, uniform_batch

MASK_AXES = ("time", "frequency")


@dataclass(frozen=True)
class MaskSpec:
    """One axis-aligned zeroing interval: `length` positions starting at `start`."""

    axis: str
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.axis not in MASK_AXES:
            raise ValueError(f"axis must be one of {MASK_AXES}, got {self.axis!r}")
        if self.start < 0 or self.length < 0:
            raise ValueError(f"start and length must be nonnegative, got ({self.start}, {self.length})")


@dataclass(frozen=True)
class AugmentPolicy:
    """Masking policy (F, m_F, R, m_R).

    F/R bound the frequency/time mask widths, m_F/m_R are how many masks of
    each kind are drawn per utterance.
    """

    max_freq_width: int = 0
    num_freq_masks: int = 0
    max_time_width: int = 0
    num_time_masks: int = 0

    def __post_init__(self) -> None:
        for name in ("max_freq_width", "num_freq_masks", "max_time_width", "num_time_masks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("max_freq_width", "max_time_width"):
            if getattr(self, name) > MASK64:  # a width draw has at most 2**64 outcomes
                raise ValueError(f"{name} must be <= 2**64 - 1, got {getattr(self, name)}")

    @property
    def is_identity(self) -> bool:
        return (self.num_freq_masks == 0 or self.max_freq_width == 0) and (
            self.num_time_masks == 0 or self.max_time_width == 0
        )


#: Named policies, as (F, m_F, R, m_R).
POLICY_PRESETS = {
    "none": AugmentPolicy(0, 0, 0, 0),
    "libri-best": AugmentPolicy(5, 1, 40, 2),
    "iwslt-best": AugmentPolicy(4, 1, 40, 2),
    "ld-like": AugmentPolicy(27, 2, 100, 2),
}


def resolve_policy(spec: str) -> AugmentPolicy:
    """Turn a preset name or a literal `F,mF,R,mR` quadruple into a policy."""
    if spec in POLICY_PRESETS:
        return POLICY_PRESETS[spec]
    parts = spec.split(",")
    if len(parts) != 4:
        raise FormatError(
            f"policy must be a preset name {sorted(POLICY_PRESETS)} or four comma-separated integers, got {spec!r}"
        )
    try:
        f, m_f, r, m_r = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"policy {spec!r} has a non-integer field") from exc
    try:
        return AugmentPolicy(f, m_f, r, m_r)
    except ValueError as exc:
        raise FormatError(f"policy {spec!r} is invalid: {exc}") from exc


def check_axis(max_width: int, count: int, extent: int) -> tuple[int, int, int]:
    """The one precondition of an axis draw, returned as Python ints.

    ConfigError for a value that is not an integer (numpy integers pass), a
    negative width or count, an empty axis, a width whose draw bound
    (max_width + 1 outcomes) exceeds 2**64, or an extent above 2**63 - 1, so
    that every start and end fits int64.
    """
    try:
        max_width, count, extent = operator.index(max_width), operator.index(count), operator.index(extent)
    except TypeError:
        raise ConfigError(f"max_width, count and extent must be integers, got {(max_width, count, extent)}") from None
    if max_width < 0:
        raise ConfigError(f"max_width must be >= 0, got {max_width}")
    if max_width > MASK64:
        raise ConfigError(f"max_width must be <= 2**64 - 1, got {max_width}")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    if extent < 1:
        raise ConfigError(f"extent must be >= 1, got {extent}")
    if extent >= 1 << 63:
        raise ConfigError(f"extent must be <= 2**63 - 1, got {extent}")
    return max_width, count, extent


def sample_axis_masks(
    max_width: int, count: int, extent: int, axis: str, rng: RngState
) -> tuple[list[MaskSpec], RngState]:
    """Draw `count` masks on one axis of the given extent.

    Per mask, in draw order: width uniform on {0..max_width}, then a start
    uniform on {0..extent-1} redrawn until it differs from every start already
    taken in this call.  The mask is clamped at the axis end, so its recorded
    length is min(width, extent - start).  A count above the extent is capped
    at the extent, since only `extent` distinct starts exist.
    """
    max_width, count, extent = check_axis(max_width, count, extent)
    masks: list[MaskSpec] = []
    used: set[int] = set()
    for _ in range(min(count, extent)):
        width, rng = uniform(rng, max_width + 1)
        start, rng = uniform(rng, extent)
        while start in used:
            start, rng = uniform(rng, extent)
        used.add(start)
        masks.append(MaskSpec(axis=axis, start=start, length=min(width, extent - start)))
    return masks, rng


def sample_axis_masks_batch(
    max_width: int, count: int, extent: int, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized twin of sample_axis_masks, one independent trial per state.

    Draw-for-draw equivalent to the scalar sampler: trial i consumes its
    stream exactly as sample_axis_masks would with RngState(states[i]).
    Returns (starts, lengths) as (n_trials, min(count, extent)) int64 arrays,
    column-major so each mask's column is contiguous, plus the advanced
    states, always a fresh array except at count 0, where no state advances
    and the input states array itself is returned.  Only the trials whose
    start repeats an earlier one redraw, and they alone are carried through
    the redraw loop.
    """
    max_width, count, extent = check_axis(max_width, count, extent)
    states = np.asarray(states, dtype=np.uint64)
    effective = min(count, extent)
    # row i is mask i of every trial; every cell is written below
    starts = np.empty((effective, states.shape[0]), dtype=np.int64)
    lengths = np.empty_like(starts)
    for i in range(effective):
        width, states = uniform_batch(states, max_width + 1)
        start, states = uniform_batch(states, extent)
        if i > 0:
            pending = np.flatnonzero(_repeats(start, starts[:i]))
            while pending.size:
                redraw, sub = uniform_batch(states[pending], extent)
                states[pending] = sub
                start[pending] = redraw
                pending = pending[_repeats(redraw, starts[:i, pending])]
        starts[i] = start
        if width.dtype == np.uint64:  # max_width >= 2**63; clamped to the extent, the widths fit int64 exactly
            width = np.minimum(width, np.uint64(extent)).view(np.int64)
        np.subtract(extent, start, out=lengths[i])
        np.minimum(lengths[i], width, out=lengths[i])
    return starts.T, lengths.T, states


def _repeats(values: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Where `values` equals the same column of any row of `taken`, one 1-D compare per row."""
    hit = values == taken[0]
    for row in taken[1:]:
        hit |= values == row
    return hit


def sample_policy_masks(
    policy: AugmentPolicy, num_frames: int, num_channels: int, rng: RngState
) -> tuple[list[MaskSpec], RngState]:
    """Draw all masks for one utterance: time masks first, then frequency masks, one shared stream."""
    time_masks, rng = sample_axis_masks(policy.max_time_width, policy.num_time_masks, num_frames, "time", rng)
    freq_masks, rng = sample_axis_masks(policy.max_freq_width, policy.num_freq_masks, num_channels, "frequency", rng)
    return time_masks + freq_masks, rng


def mask_index(mask: MaskSpec, shape: tuple[int, int]) -> tuple[slice, slice]:
    """Index of the cells `mask` covers in a (frames, channels) array of this shape.

    Time masks select frame rows, frequency masks channel columns.  A mask
    that starts at or runs past the end of its axis raises MaskBoundsError.
    """
    extent = shape[0] if mask.axis == "time" else shape[1]
    if mask.start >= extent or mask.start + mask.length > extent:
        raise MaskBoundsError(
            f"{mask.axis} mask [{mask.start}, {mask.start + mask.length}) exceeds axis extent {extent}"
        )
    span = slice(mask.start, mask.start + mask.length)
    return (span, slice(None)) if mask.axis == "time" else (slice(None), span)


def _masked_blocks(blocks: Iterable[np.ndarray], masks: list[MaskSpec], shape: tuple[int, int]) -> Iterator[np.ndarray]:
    """Each block of a record of `shape`, in order, with the cells of `masks` that fall in it zeroed in place."""
    spans = [mask_index(mask, shape) for mask in masks]
    first = 0
    for block in blocks:
        last = first + len(block)
        for rows, columns in spans:
            if rows.stop is None:  # a frequency mask
                block[:, columns] = 0.0
            elif rows.start < last and rows.stop > first:  # a time mask's frames in this block
                block[max(rows.start - first, 0) : rows.stop - first] = 0.0
        first = last
        yield block


def apply_masks(
    features: FeatureMatrix | FeatureRows, masks: list[MaskSpec], out: np.ndarray | None = None
) -> FeatureMatrix | FeatureRows:
    """Zero every masked frame row / channel column.

    Without `out` a copy is masked.  With `out`, an array of the features'
    shape, the features are masked there and the returned matrix holds
    `out`; `out=features.data` masks in place and returns `features` itself,
    unchecked, since zeroing cannot make a value non-finite.  FeatureRows
    come back as FeatureRows whose blocks are masked in place as they are taken.
    """
    if isinstance(features, FeatureRows):
        shape = (features.num_frames, features.num_channels)
        return replace(features, blocks=_masked_blocks(features.blocks, masks, shape))
    if out is None:
        data = features.data.copy()
    else:
        data = out
        if data is not features.data:
            np.copyto(data, features.data)
    next(_masked_blocks([data], masks, data.shape))
    return features if data is features.data else replace(features, data=data)


def augment(
    features: FeatureMatrix, policy: AugmentPolicy, rng: RngState, out: np.ndarray | None = None
) -> tuple[FeatureMatrix, list[MaskSpec], RngState]:
    """Sample masks for the policy and apply them, to a copy or into `out` as apply_masks does."""
    masks, rng = sample_policy_masks(policy, features.num_frames, features.num_channels, rng)
    return apply_masks(features, masks, out=out), masks, rng


def masks_to_text(masks: list[MaskSpec]) -> str:
    """Serialize masks one per line as `axis<TAB>start<TAB>length`."""
    return "".join(f"{m.axis}\t{m.start}\t{m.length}\n" for m in masks)


def masks_from_text(text: str) -> list[MaskSpec]:
    """Parse the masks_to_text format; malformed lines raise FormatError with their line number."""
    masks: list[MaskSpec] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"mask line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        axis, start_s, length_s = fields
        try:
            start, length = int(start_s), int(length_s)
        except ValueError:
            raise FormatError(f"mask line {lineno}: start and length must be integers") from None
        try:
            masks.append(MaskSpec(axis=axis, start=start, length=length))
        except ValueError as exc:
            raise FormatError(f"mask line {lineno}: {exc}") from None
    return masks
