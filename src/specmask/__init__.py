"""Deterministic speech feature extraction with time/frequency mask augmentation.

The package splits into: `features` (WAV to log-mel/MFCC), `masking` (the
augmentation samplers), `stats` (standardization plus the exact and Monte
Carlo verification oracles), `spfx`/`manifest`/`render`/`pipeline` (batch
I/O), and `toy` (the overfitting demo).  All randomness flows through
explicit SplitMix64 states from `rng`.

Package-level names (`specmask.extract`, `from specmask import train`, and
the submodules themselves) load their submodule on first use, so
`import specmask.pipeline` loads only what the pipeline needs.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names it exports at package level
_EXPORTS = {
    "errors": (
        "ConfigError", "DivergenceError", "EmptyInputError", "FormatError", "ManifestError", "MaskBoundsError",
        "SpecmaskError", "UnsupportedFormatError",
    ),
    "features": ("DSP_PRESETS", "DspConfig", "FeatureMatrix", "PcmSignal", "extract", "read_wav"),
    "manifest": ("Manifest", "ManifestRecord", "format_manifest", "parse_manifest", "slice_manifest"),
    "masking": (
        "POLICY_PRESETS", "AugmentPolicy", "MaskSpec", "apply_masks", "augment", "masks_from_text", "masks_to_text",
        "resolve_policy", "sample_axis_masks", "sample_policy_masks",
    ),
    "pipeline": ("RunConfig", "RunSummary", "run_pipeline"),
    "render": ("render_masks_pgm",),
    "rng": ("RngState", "derive_utterance_seed", "fnv1a_64", "next_u64", "uniform"),
    "spfx": ("read_spfx", "read_stats_container", "write_spfx", "write_stats_container"),
    "stats": (
        "CorpusStats", "MaskFractionReport", "accumulate_stats", "exact_masked_mean", "exact_masked_mean_multi",
        "monte_carlo_masked_mean", "standardize", "verify_grid",
    ),
    "toy": (
        "DemoParams", "LearningCurve", "SyntheticDataset", "ToyModel", "default_params", "forward_nll",
        "generate_dataset", "gradient", "train",
    ),
}
#: package-level name -> the submodule that defines it; a submodule's name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule behind a package-level name on its first use (PEP 562)."""
    try:
        module_name = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value
