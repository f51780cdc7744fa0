"""The benchmark's workloads and metric names, shared by run.py and worker.py."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs and the entry point calls one iteration makes.

    `kind` selects the iteration: `extract` (eval-mode run_pipeline),
    `augment` (stats pass, then train-mode run_pipeline with those stats),
    `reaugment` (train-mode run_pipeline over SPFX inputs, one epoch per
    iteration, a fresh seed each epoch) or `verify` (verify_grid).  The output
    trees of the last `checked_epochs` iterations are checked.
    """

    name: str
    kind: str
    utterances: int = 0
    workers: int = 1
    preset: str = "librispeech-like"
    policy: str = "none"
    channels: int = 40
    checked_epochs: int = 1
    trials: int = 0


#: The policies as (F, m_F, R, m_R), written out here so the output checks do
#: not take them from the package they check.
POLICIES = {"none": (0, 0, 0, 0), "ld-like": (27, 2, 100, 2)}

#: The grid `specmask verify` runs.
VERIFY_EXTENTS = range(1, 13)
VERIFY_MAX_WIDTHS = range(0, 7)
VERIFY_COUNTS = (1, 2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("extract-logmel40", "extract", utterances=24, workers=1),
        Workload(
            "augment-mfcc80-ld", "augment", utterances=12, workers=2, preset="iwslt-like", policy="ld-like", channels=80
        ),
        Workload("reaugment-spfx-ld", "reaugment", utterances=96, workers=2, policy="ld-like", channels=80, checked_epochs=4),
        Workload("verify-grid", "verify", trials=40_000),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload shrunk to a few inputs, for the self-tests."""
    if workload.kind == "verify":
        return replace(workload, trials=200)
    return replace(workload, utterances=3, checked_epochs=min(workload.checked_epochs, 2))


END_TO_END = {
    "wall_s": "s",
    "audio_x_realtime": "audio_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Span names whose self time is reported as `<name>.self_s`.
SPAN_NAMES = (
    "features.read_wav",
    "features.frame_and_window",
    "features.power_spectrum",
    "features.mel_energies",
    "features.mfcc_from_logmel",
    "spfx.write_spfx",
    "spfx.read_spfx",
    "spfx.read_stats_container",
    "stats.accumulate_stats",
    "stats.standardize",
    "stats.monte_carlo_masked_mean",
    "stats.exact_masked_mean_multi",
    "stats.verify_grid",
    "masking.sample_policy_masks",
    "masking.apply_masks",
    "masking.masks_to_text",
    "masking.sample_axis_masks_batch",
    "rng.substream_batch",
    "rng.uniform_batch",
    "rng.derive_utterance_seed",
    "manifest.parse_manifest",
    "pipeline.run_pipeline",
)

#: Per-layer metrics other than self times, with their units.
LAYER_COUNTS = {
    "features.frames": "count",
    "features.audio_s": "s",
    "spfx.bytes_written": "bytes",
    "spfx.bytes_read": "bytes",
    "stats.exact.tuples": "count",
    "stats.monte_carlo_masked_mean.peak_mb": "MB",
    "masking.masks": "count",
    "masking.masked_cell_fraction": "ratio",
    "masking.draw_yield": "ratio",
    "rng.uniform_batch.draws_per_call": "calls/call",
    "pipeline.worker_utilization": "ratio",
    "trace.overhead_s": "s",
}

PER_LAYER = {**{f"{name}.self_s": "s" for name in SPAN_NAMES}, **LAYER_COUNTS}
