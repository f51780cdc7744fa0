"""Command-line interface.

Exit codes: 0 on success; 1 when individual utterances failed, a verify
cell failed or demo training diverged; 2 on every other package error, on
input or output paths that cannot be used and on an allocation refused for
a size the caller chose.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from .errors import ConfigError, DivergenceError, EmptyInputError, SpecmaskError
from .features import DspConfig
from .manifest import format_manifest, parse_manifest, slice_manifest
from .masking import POLICY_PRESETS, AugmentPolicy, masks_from_text, resolve_policy
from .pipeline import RUN_MODES, RunConfig, RunSummary, load_features, map_records, parse_dsp_config, run_pipeline
from .render import render_masks_pgm
from .spfx import read_spfx, write_stats_container
from .stats import accumulate_stats, verify_grid
from .toy import (
    DEFAULT_DEMO_EPOCHS,
    DEFAULT_DEMO_LR,
    DEFAULT_DEMO_POLICY,
    DEFAULT_DEMO_SEED,
    default_params,
    generate_dataset,
    train,
)

VERIFY_EXTENTS = range(1, 13)
VERIFY_MAX_WIDTHS = range(0, 7)
VERIFY_COUNTS = (1, 2)


def _dsp_from_args(args) -> DspConfig:
    if args.config:
        return parse_dsp_config(Path(args.config).read_text(encoding="utf-8"))
    return DspConfig()


def _policy_from_args(args, default: AugmentPolicy) -> AugmentPolicy:
    return resolve_policy(args.policy) if args.policy else default


def _run(args, **fields) -> RunSummary:
    """Run the pipeline over `--manifest` into `--out` with the `--config` front end."""
    return run_pipeline(RunConfig(manifest_path=args.manifest, output_dir=args.out, dsp=_dsp_from_args(args), **fields))


def _report_summary(summary: RunSummary, done: str | None = None) -> int:
    """Print warnings, failures and the `done` line (default: the processed count)."""
    for note in summary.warnings:
        print(f"warning: {note}", file=sys.stderr)
    for utterance_id, message in summary.failures:
        print(f"failed: {utterance_id}: {message}", file=sys.stderr)
    if done is None:
        done = f"processed {summary.utterances_processed} utterances, {summary.masks_drawn} masks drawn"
    print(done)
    return 1 if summary.failures else 0


def _cmd_extract(args) -> int:
    return _report_summary(_run(args, mode="eval", num_workers=args.workers))  # plain extraction never augments


def _cmd_stats(args) -> int:
    dsp = _dsp_from_args(args)
    manifest_path = Path(args.manifest)
    manifest = parse_manifest(manifest_path.read_text(encoding="utf-8"))
    summary = RunSummary()
    task = partial(load_features, base_dir=manifest_path.parent, dsp=dsp)
    try:
        stats = accumulate_stats(map_records(manifest.records, task, 1, summary))
    except EmptyInputError:
        _report_summary(summary, "accumulated 0 frames")  # say why no record loaded
        raise
    write_stats_container(stats, args.out)
    return _report_summary(summary, f"accumulated {stats.count} frames over {stats.num_channels} channels")


def _cmd_standardize(args) -> int:
    summary = _run(args, mode="eval", stats_path=args.stats)  # standardize only, never augment
    total = summary.utterances_processed + len(summary.failures)
    return _report_summary(summary, f"standardized {summary.utterances_processed} of {total} utterances")


def _cmd_augment(args) -> int:
    policy = _policy_from_args(args, POLICY_PRESETS["none"])
    summary = _run(args, policy=policy, seed=args.seed, mode=args.mode, stats_path=args.stats, num_workers=args.workers)
    return _report_summary(summary)


def _cmd_slice(args) -> int:
    try:
        fractions = [Fraction(token) for token in args.fractions.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad fractions {args.fractions!r}: {exc}") from None
    manifest = parse_manifest(Path(args.manifest).read_text(encoding="utf-8"))
    slices = slice_manifest(manifest, fractions, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for token, sliced in zip(args.fractions.split(","), slices):
        path = out_dir / f"slice_{token.replace('/', '-')}.tsv"
        path.write_text(format_manifest(sliced), encoding="utf-8")
        print(f"{path}: {len(sliced)} records")
    return 0


def _cmd_render(args) -> int:
    features = read_spfx(args.features)
    masks = masks_from_text(Path(args.masks).read_text(encoding="utf-8")) if args.masks else []
    render_masks_pgm(features, masks, args.out)
    print(f"wrote {args.out} ({features.num_frames}x{features.num_channels})")
    return 0


def _cmd_verify(args) -> int:
    rows = verify_grid(VERIFY_EXTENTS, VERIFY_MAX_WIDTHS, VERIFY_COUNTS, args.trials, args.seed)
    print(f"{'extent':>6} {'max_width':>9} {'count':>5} {'exact':>10} {'mc_mean':>10} {'stderr':>10} result")
    failures = 0
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        if not row.passed:
            failures += 1
        print(
            f"{row.extent:>6} {row.max_width:>9} {row.count:>5} "
            f"{row.exact:>10.6f} {row.mc_mean:>10.6f} {row.mc_stderr:>10.6f} {status}"
        )
    print(f"{len(rows) - failures}/{len(rows)} grid cells passed at trials={args.trials}")
    return 1 if failures else 0


def _cmd_demo(args) -> int:
    policy = _policy_from_args(args, DEFAULT_DEMO_POLICY)
    dataset = generate_dataset(default_params(), args.seed)
    curve = train(dataset, policy, args.epochs, args.lr, args.seed)
    Path(args.out).write_text(curve.to_csv(), encoding="utf-8")
    print(
        f"epochs={curve.num_epochs} final train_nll={curve.train_nll[-1]:.4f} "
        f"dev_nll={curve.dev_nll[-1]:.4f} gap={curve.final_gap:.4f}"
    )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specmask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--config", help="DSP config file (key = value lines, for WAV inputs)")
    corpus.add_argument("--manifest", required=True)
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("extract", parents=[corpus, workers], help="extract features for every manifest record")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("stats", parents=[corpus], help="accumulate per-channel mean/variance over a corpus")
    p.add_argument("--out", required=True, help="output stats container path")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("standardize", parents=[corpus], help="standardize features with precomputed stats")
    p.add_argument("--stats", required=True, help="stats container from the stats subcommand")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_standardize)

    p = sub.add_parser("augment", parents=[corpus, workers], help="run the masking pipeline over a manifest")
    p.add_argument("--policy", help="policy preset name or literal F,mF,R,mR (default: none)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=RUN_MODES, default="train")
    p.add_argument("--stats", help="standardize with this stats container before masking")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("slice", help="write nested random manifest subsets")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fractions", required=True, help="comma-separated fractions in (0, 1], ascending")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("render", help="render a feature matrix (plus masks) as a PGM image")
    p.add_argument("--features", required=True, help="input .spfx file")
    p.add_argument("--masks", help="mask sidecar to overlay")
    p.add_argument("--out", required=True, help="output .pgm path")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="check the mask sampler against the exact expected coverage")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo", help="train the toy classifier and emit its learning curve")
    p.add_argument("--policy", help="policy preset name or literal F,mF,R,mR (default: the shipped demo policy)")
    p.add_argument("--epochs", type=int, default=DEFAULT_DEMO_EPOCHS)
    p.add_argument("--lr", type=float, default=DEFAULT_DEMO_LR)
    p.add_argument("--seed", type=int, default=DEFAULT_DEMO_SEED)
    p.add_argument("--out", default="curve.csv", help="output CSV path")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecmaskError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DivergenceError) else 2  # 1: training ran and failed its check


if __name__ == "__main__":
    sys.exit(main())
