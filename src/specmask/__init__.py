"""Deterministic speech feature extraction with time/frequency mask augmentation.

The package splits into: `features` (WAV to log-mel/MFCC), `masking` (the
augmentation samplers), `stats` (standardization plus the exact and Monte
Carlo verification oracles), `spfx`/`manifest`/`render`/`pipeline` (batch
I/O), and `toy` (the overfitting demo).  All randomness flows through
explicit SplitMix64 states from `rng`.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    EmptyInputError,
    EnumerationTooLargeError,
    FormatError,
    ManifestError,
    MaskBoundsError,
    SpecmaskError,
    UnsupportedFormatError,
)
from .features import (
    DSP_PRESETS,
    DspConfig,
    FeatureMatrix,
    PcmSignal,
    extract,
    read_wav,
)
from .manifest import Manifest, ManifestRecord, format_manifest, parse_manifest, slice_manifest
from .masking import (
    POLICY_PRESETS,
    AugmentPolicy,
    MaskSpec,
    apply_masks,
    augment,
    masks_from_text,
    masks_to_text,
    resolve_policy,
    sample_axis_masks,
    sample_policy_masks,
)
from .pipeline import RunConfig, RunSummary, run_pipeline
from .render import render_masks_pgm
from .rng import RngState, derive_utterance_seed, fnv1a_64, next_u64, substream, uniform
from .spfx import read_spfx, read_stats_container, write_spfx, write_stats_container
from .stats import (
    CorpusStats,
    MaskFractionReport,
    accumulate_stats,
    exact_masked_mean,
    exact_masked_mean_closed,
    exact_masked_mean_multi,
    monte_carlo_masked_mean,
    standardize,
    verify_grid,
)
from .toy import (
    DemoParams,
    LearningCurve,
    SyntheticDataset,
    ToyModel,
    default_params,
    forward_nll,
    generate_dataset,
    gradient,
    train,
)

__version__ = "0.1.0"
