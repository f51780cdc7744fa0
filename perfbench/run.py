#!/usr/bin/env python3
"""specmask benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed, the
workload runs in a fresh interpreter (worker.py) against `src/specmask`, the
outputs are checked, and the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks
import gen
import speed
from workloads import END_TO_END, PER_LAYER, POLICIES, VERIFY_COUNTS, VERIFY_EXTENTS, VERIFY_MAX_WIDTHS, WORKLOADS, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

#: Set-up is timed this many times before the workload runs and as many times
#: after it (after one untimed probe), and the middle-half mean of all is reported.
SETUP_PROBES_EACH_SIDE = 6
MIN_ITERATIONS = 3
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def commit() -> str:
    """The checked-out commit, read from `.git` without running git; `unknown` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def prepare(workload, seed: int, run_dir: Path) -> tuple[dict, float, list]:
    """Generate the inputs; return the worker's plan, the audio-seconds one iteration
    processes, and the utterances whose outputs are checked."""
    plan = {
        "kind": workload.kind,
        "seed": seed,
        "preset": workload.preset,
        "policy": workload.policy,
        "trials": workload.trials,
        "out": str(run_dir / "out"),
        "reference_out": str(run_dir / "reference"),
        "setup_stats": None,
    }
    if workload.kind == "verify":
        plan["grid"] = {"extents": list(VERIFY_EXTENTS), "max_widths": list(VERIFY_MAX_WIDTHS), "counts": list(VERIFY_COUNTS)}
        # each trial masks one axis of `extent` positions, counted as frames at the 10 ms shift
        trials_frames = workload.trials * sum(VERIFY_EXTENTS) * len(VERIFY_MAX_WIDTHS) * len(VERIFY_COUNTS)
        return plan, trials_frames * gen.FRAME_SHIFT_MS / 1000.0, []
    if workload.kind == "reaugment":
        corpus, stats_path = gen.write_spfx_corpus(run_dir / "in", workload.utterances, workload.channels, seed)
        plan.update(stats=str(stats_path), setup_stats=str(stats_path))
    else:
        corpus = gen.write_wav_corpus(run_dir / "in", workload.utterances, seed)
    setup_manifest, unit_stats = gen.write_setup_inputs(run_dir / "setup", workload.channels)
    plan["manifest"] = str(corpus.manifest)
    plan["planned"] = len(corpus.utterances)
    plan["setup_manifest"] = str(setup_manifest)
    if workload.kind == "augment":
        plan["setup_stats"] = str(unit_stats)
    return plan, corpus.audio_s, list(corpus.utterances)


def run_python(args: list[str], timeout: float) -> float:
    """Run a fresh interpreter to completion and return its wall time; raise if it fails.

    The wait blocks instead of polling (`Popen.wait(timeout)` polls in steps
    of up to 50 ms, which would quantize the set-up times); a timer kills the
    interpreter if it overruns.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=sys.stderr)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        returncode = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited with {returncode}")
    return elapsed


def time_setup(plan_path: Path, run_dir: Path, probes: range, start_times: list[float]) -> list[float]:
    """Wall times of fresh interpreters running the entry point on an empty input.
    Before each, a fresh interpreter runs the start-up probe, and its time is
    appended to `start_times`."""
    times = []
    for probe in probes:
        start_times.append(run_python(list(speed.START_PROBE), PROBE_TIMEOUT_S))
        times.append(run_python([str(WORKER), "setup", str(plan_path), str(run_dir / f"setup_out{probe}")], PROBE_TIMEOUT_S))
    return times


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (a quarter cut from each end).

    The host's speed drifts in phases of seconds to minutes, so a run's
    iteration times are a mix of fast and slow phases.  The median of such a
    mix jumps to whichever phase held the majority; the middle-half mean
    averages them like a mean, and like a median it ignores the outliers."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def check_outputs(workload, plan: dict, result: dict, utterances: list) -> tuple[int, float, list[str]]:
    """Check the output trees of the last iterations; return (failed utterances,
    masked-cell fraction, report lines)."""
    kind = gen.KIND_LOG_MEL if workload.kind == "extract" else gen.KIND_STANDARDIZED_MFCC
    policy = POLICIES[workload.policy]
    failed, masked, cells, lines = 0, 0, 0, []
    for slot in result["checked"]:
        tree = Path(plan["out"]) / slot / "features"
        report = checks.check_tree(tree, utterances, workload.channels, kind, policy)
        failed += len(report.failed)
        masked += report.masked_cells
        cells += report.total_cells
        lines += [f"check failed: tree {slot}: {message}" for message in report.failed]
        lines.append(f"digest tree {slot} sha256:{checks.tree_digest(tree)}")
        # byte identity with the same iteration at another worker count, per utterance
        reference = Path(plan["reference_out"]) / slot / "features"
        for utt in utterances:
            names = (f"{utt.utterance_id}.spfx", f"{utt.utterance_id}.masks")
            if not all(same_bytes(tree / name, reference / name) for name in names):
                failed += 1
                lines.append(f"check failed: tree {slot}: {utt.utterance_id} differs at {plan['reference_workers']} workers")
    return failed, masked / cells if cells else 0.0, lines


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    workers = min(workload.workers, nproc())
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        plan, audio_s, utterances = prepare(workload, args.seed, run_dir)
        plan.update(
            workers=workers,
            reference_workers=2 if workers == 1 else 1,
            seconds=args.seconds,
            trace=args.trace,
            min_iterations=MIN_ITERATIONS,
            checked_epochs=workload.checked_epochs,
            trace_file=str(WORK / f"trace-{workload.name}.jsonl"),
        )
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        # set-up probes on both sides of the workload, so they sample the host
        # over the whole run rather than in one burst
        probes = SETUP_PROBES_EACH_SIDE
        start_times: list[float] = []
        setup_times = time_setup(plan_path, run_dir, range(probes + 1), start_times)[1:]
        result_path = run_dir / "result.json"
        run_python([str(WORKER), "run", str(plan_path), str(result_path)], WORKER_TIMEOUT_S)
        setup_times += time_setup(plan_path, run_dir, range(probes + 1, 2 * probes + 1), start_times)
        # scaled to the reference host by the start-up probes taken beside the set-up probes
        setup_scale = speed.START_REFERENCE_S / interquartile_mean(start_times[1:])
        setup_s = interquartile_mean(setup_times) * setup_scale
        result = json.loads(result_path.read_text(encoding="utf-8"))

        failed, lines = result["failed"] + result["reference_failed"], []
        masked_fraction = 0.0
        if workload.kind == "verify":
            grid = plan["grid"]
            bad = checks.check_grid(result["rows"], grid["extents"], grid["max_widths"], grid["counts"], workload.trials)
            failed += len(bad)
            lines = [f"check failed: {message}" for message in bad]
        else:
            bad, masked_fraction, lines = check_outputs(workload, plan, result, utterances)
            failed += bad
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = result["walls"]
    wall_reference_s = speed.REFERENCE_S[workers]
    wall_scale = wall_reference_s / interquartile_mean(result["probe_times"])
    measured_wall_s = interquartile_mean(walls)
    wall_s = measured_wall_s * wall_scale
    median = statistics.median(walls)
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else [median] * 3
    if args.trace:
        metrics = dict(result["layers"])
        metrics["masking.masked_cell_fraction"] = masked_fraction
        # each traced iteration directly follows an untraced one, so compare them in pairs
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(result["traced_walls"], walls))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_s,
            "audio_x_realtime": audio_s / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    attempted = result["attempted"]
    # the highest percentile with at least ten iterations above it
    tail = f" p{100 * (len(walls) - 10) // len(walls)}={sorted(walls)[-11]:.6f}" if len(walls) >= 20 else ""

    print(
        f"# workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"workers={workers} blas_threads=1 nproc={nproc()}"
    )
    print(
        f"# commit={commit()} cpu={cpu_model()!r} python={platform.python_version()} numpy={np.__version__}"
    )
    print(
        f"# iterations={len(walls)} wall_s min={min(walls):.6f} p25={quartiles[0]:.6f} median={median:.6f} "
        f"p75={quartiles[2]:.6f}{tail} max={max(walls):.6f} interquartile_mean={measured_wall_s:.6f}"
    )
    print(
        f"# speed probe threads={workers} interquartile_mean={wall_reference_s / wall_scale:.6f} reference={wall_reference_s} "
        f"start-up probe interquartile_mean={speed.START_REFERENCE_S / setup_scale:.6f} reference={speed.START_REFERENCE_S}"
    )
    print(
        f"# setup_s probes={len(setup_times)} median before={statistics.median(setup_times[:probes]):.6f} "
        f"after={statistics.median(setup_times[probes:]):.6f} interquartile_mean={setup_s / setup_scale:.6f}"
    )
    for line in lines:
        print(f"# {line}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few inputs only, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "specmask" / "__init__.py").is_file():
        print(f"error: no specmask package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
