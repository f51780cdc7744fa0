"""Batch processing: manifest in, per-utterance SPFX + mask sidecars out.

Every utterance draws its masks from an RNG state derived from
(global seed, utterance id), so output bytes depend only on inputs, config
and seed, never on worker count or scheduling.  Augmentation is train-only:
eval mode forces the `none` policy.  A mask sidecar is always written, so an
eval-mode output tree is byte-identical to a policy-none tree.
"""

from __future__ import annotations

import typing
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .errors import ConfigError, SpecmaskError
from .features import DspConfig, FeatureMatrix, extract, read_wav
from .masking import POLICY_PRESETS, AugmentPolicy, augment, masks_to_text
from .rng import RngState, derive_utterance_seed
from .spfx import read_spfx, read_stats_container, write_spfx
from .stats import CorpusStats, standardize
from .manifest import Manifest, ManifestRecord, parse_manifest

RUN_MODES = ("train", "eval")


@dataclass(frozen=True)
class RunConfig:
    """One pipeline invocation.  mode="eval" overrides the policy with `none`."""

    manifest_path: str
    output_dir: str
    dsp: DspConfig = DspConfig()
    policy: AugmentPolicy = POLICY_PRESETS["none"]
    seed: int = 0
    mode: str = "train"
    stats_path: str | None = None
    num_workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode must be one of {RUN_MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a u64, got {self.seed}")
        if self.num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {self.num_workers}")

    @property
    def effective_policy(self) -> AugmentPolicy:
        return self.policy if self.mode == "train" else POLICY_PRESETS["none"]


@dataclass
class RunSummary:
    """Aggregated results in manifest order."""

    utterances_processed: int = 0
    masks_drawn: int = 0
    warnings: list[str] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)


#: Errors that fail one record: it is reported and skipped, and the run goes on.
RECORD_ERRORS = (SpecmaskError, OSError, ValueError)


def map_records(records: Sequence[ManifestRecord], task: Callable, num_workers: int, summary: RunSummary) -> Iterator:
    """Yield `task(record)` for every record, in manifest order.

    A record whose task raises one of RECORD_ERRORS goes to `summary.failures`
    and is skipped; every other record counts in `summary.utterances_processed`.
    At one worker each task runs in the calling thread when its result is taken;
    more workers run every record on a thread pool, submitted up front.
    """

    def attempt(record: ManifestRecord) -> tuple[bool, typing.Any]:
        try:
            return True, task(record)
        except RECORD_ERRORS as exc:
            return False, str(exc)

    with ThreadPoolExecutor(max_workers=num_workers) if num_workers > 1 else nullcontext() as pool:
        outcomes = pool.map(attempt, records) if pool else map(attempt, records)
        for record, (ok, value) in zip(records, outcomes):
            if not ok:
                summary.failures.append((record.utterance_id, value))
                continue
            summary.utterances_processed += 1
            yield value


def load_features(record: ManifestRecord, base_dir: Path, dsp: DspConfig) -> FeatureMatrix:
    """The record's features: read from its `.spfx` file, or extracted from its WAV with `dsp`."""
    path = base_dir / record.path
    if path.suffix == ".spfx":
        return read_spfx(path)
    return extract(read_wav(path), dsp)


def _process_one(
    record: ManifestRecord,
    base_dir: Path,
    out_dir: Path,
    config: RunConfig,
    stats: CorpusStats | None,
) -> tuple[int, list[str]]:
    # the record's one float64 array, just allocated by the reader or the
    # front end: standardized and masked in place, then cast once at write
    features = load_features(record, base_dir, config.dsp)
    if stats is not None:
        features = standardize(features, stats, out=features.data)
    policy = config.effective_policy
    notes: list[str] = []
    if policy.num_time_masks > features.num_frames:
        notes.append(
            f"{record.utterance_id}: requested {policy.num_time_masks} time masks "
            f"but only {features.num_frames} frames; capped"
        )
    if policy.num_freq_masks > features.num_channels:
        notes.append(
            f"{record.utterance_id}: requested {policy.num_freq_masks} frequency masks "
            f"but only {features.num_channels} channels; capped"
        )
    rng = RngState(derive_utterance_seed(config.seed, record.utterance_id))
    masked, masks, _ = augment(features, policy, rng, out=features.data)
    write_spfx(masked, out_dir / f"{record.utterance_id}.spfx")
    # the sidecar is written even when empty, so eval trees match policy-none trees
    (out_dir / f"{record.utterance_id}.masks").write_text(masks_to_text(masks), encoding="utf-8")
    return len(masks), notes


def run_pipeline(config: RunConfig) -> RunSummary:
    """Process every manifest record; per-utterance failures are collected, not fatal."""
    manifest_path = Path(config.manifest_path)
    manifest: Manifest = parse_manifest(manifest_path.read_text(encoding="utf-8"))
    base_dir = manifest_path.parent
    stats = read_stats_container(config.stats_path) if config.stats_path else None
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = RunSummary()
    task = partial(_process_one, base_dir=base_dir, out_dir=out_dir, config=config, stats=stats)
    for num_masks, notes in map_records(manifest.records, task, config.num_workers, summary):
        summary.masks_drawn += num_masks
        summary.warnings.extend(notes)
    return summary


def _field_type(hint) -> tuple[type, bool]:
    """(value type, whether `none` is accepted) of an annotation such as `int`, `str` or `float | None`."""
    args = typing.get_args(hint)
    return next((a for a in args if a is not type(None)), hint), type(None) in args


_DSP_FIELD_TYPES = {name: _field_type(hint) for name, hint in typing.get_type_hints(DspConfig).items()}


def parse_dsp_config(text: str) -> DspConfig:
    """Parse `key = value` lines into a DspConfig.

    `#` lines and blank lines are skipped; unknown keys are rejected.  Each
    value is parsed as its DspConfig annotation says; the `T | None` fields
    also accept the value `none`, in any case.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected `key = value`, got {stripped!r}")
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if key not in _DSP_FIELD_TYPES:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        value_type, optional = _DSP_FIELD_TYPES[key]
        try:
            values[key] = None if optional and value.lower() == "none" else value_type(value)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value {value!r} for {key!r}") from None
    return DspConfig(**values)
