"""One workload in a fresh interpreter: set-up probe, or timed (and traced) iterations.

run.py starts this file as a subprocess and reads the JSON it writes:

    python3 perfbench/worker.py setup PLAN.json OUT_DIR
    python3 perfbench/worker.py run PLAN.json RESULT.json

`setup` calls the workload's entry point on an empty input and exits.  `run`
makes one warm-up iteration and records the peak resident memory of the
process tree during it, then iterates for the planned number of seconds and
records each iteration's wall time and start time, with the time of the
speed probe (speed.py) on as many threads as the workload has workers before
each iteration; with tracing on it
alternates untraced and traced iterations.  For pipeline workloads it then
writes a reference tree of each checked iteration at another worker count for
the byte-identity check.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import json
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


def import_package():
    """Import specmask from this checkout's `src/`, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import specmask

    if Path(specmask.__file__).resolve().parent != (SRC / "specmask").resolve():
        raise SystemExit(f"specmask was imported from {specmask.__file__}, not from {SRC}")
    return specmask


def epoch_seed(seed: int, epoch: int) -> int:
    return (seed << 20) + epoch


def epoch_dir(root: str, epoch: int, slots: int) -> Path:
    """Iterations write `slots` output trees in turn.  Each tree is emptied,
    outside the timed region, before an iteration writes it again, so every
    file in a checked tree was written by its own iteration.  Rewriting the
    files in place instead made ext4 write each truncated file back to disk
    at once: about 2 GB of writes and as many discards in 18 s of
    `reaugment-spfx-ld`, whose times then followed the shared disk.  With
    emptied trees that run wrote about 1 MB."""
    return Path(root) / str(epoch % slots)


def make_iteration(plan: dict, workers: int, out: str):
    """Return a function of the epoch number that runs one iteration and returns
    (attempted, failed, verify rows or None)."""
    import specmask.features as features
    import specmask.manifest as manifest
    import specmask.masking as masking
    import specmask.pipeline as pipeline
    import specmask.spfx as spfx
    import specmask.stats as stats

    kind = plan["kind"]
    slots = plan["checked_epochs"]
    if kind == "verify":
        grid = plan["grid"]
        planned = len(grid["extents"]) * len(grid["max_widths"]) * len(grid["counts"])

        def verify(_epoch):
            rows = stats.verify_grid(grid["extents"], grid["max_widths"], grid["counts"], plan["trials"], plan["seed"])
            # a missing cell counts as failed; run.py checks the rows themselves
            failed = sum(not row.passed for row in rows) + max(planned - len(rows), 0)
            return planned, failed, [dataclasses.asdict(row) for row in rows]

        return verify

    dsp = features.DSP_PRESETS[plan["preset"]]
    policy = masking.POLICY_PRESETS[plan["policy"]]

    def run(seed: int, out_dir: Path, stats_path: Path | str | None):
        config = pipeline.RunConfig(
            manifest_path=plan["manifest"],
            output_dir=str(out_dir),
            dsp=dsp,
            policy=policy,
            seed=seed,
            mode="eval" if kind == "extract" else "train",
            stats_path=None if stats_path is None else str(stats_path),
            num_workers=workers,
        )
        summary = pipeline.run_pipeline(config)
        # an utterance neither processed nor reported as failed counts as failed
        unaccounted = max(plan["planned"] - summary.utterances_processed - len(summary.failures), 0)
        return plan["planned"], len(summary.failures) + unaccounted, None

    if kind == "extract":
        return lambda epoch: run(plan["seed"], epoch_dir(out, epoch, slots) / "features", None)

    if kind == "augment":

        def augment(epoch):
            # the `specmask stats` pass, then augmentation standardized with its output
            manifest_path = Path(plan["manifest"])
            records = manifest.parse_manifest(manifest_path.read_text(encoding="utf-8")).records
            stream = (features.extract(features.read_wav(manifest_path.parent / r.path), dsp) for r in records)
            epoch_dir(out, epoch, slots).mkdir(parents=True, exist_ok=True)
            stats_path = epoch_dir(out, epoch, slots) / "corpus.spfx-stats"
            spfx.write_stats_container(stats.accumulate_stats(stream), stats_path)
            return run(plan["seed"], epoch_dir(out, epoch, slots) / "features", stats_path)

        return augment

    def reaugment(epoch):
        # a fresh seed every epoch
        return run(epoch_seed(plan["seed"], epoch), epoch_dir(out, epoch, slots) / "features", plan["stats"])

    return reaugment


def tree_rss_kib(pid: int) -> int:
    """Resident memory of `pid` and all its descendant processes now, in KiB."""
    total, pending = 0, [pid]
    while pending:
        current = pending.pop()
        try:
            total += int(Path(f"/proc/{current}/statm").read_text().split()[1]) * PAGE_KIB
            for task in os.listdir(f"/proc/{current}/task"):
                pending += [int(c) for c in Path(f"/proc/{current}/task/{task}/children").read_text().split()]
        except (OSError, ValueError):
            pass  # the process ended, or the kernel does not list children
    return total


class TreeRss(threading.Thread):
    """Samples the resident memory of this process and its descendants every
    few milliseconds while running, so the memory of worker processes counts
    too.  `peak_mb()` is the larger of the sampled peak and this process's own
    exact peak."""

    def __init__(self, interval_s: float = 0.005) -> None:
        super().__init__(daemon=True)
        self.interval_s = interval_s
        self.peak_kib = 0
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(self.interval_s):
            self.peak_kib = max(self.peak_kib, tree_rss_kib(os.getpid()))

    def stop(self) -> None:
        self.done.set()
        self.join()

    def peak_mb(self) -> float:
        return max(own_peak_rss_kib(), self.peak_kib) / 1024.0


def own_peak_rss_kib() -> int:
    """This process's exact peak RSS since it exec'd, in KiB.  Not `ru_maxrss`:
    Linux carries that over from the parent's memory across fork and exec, so
    it would report the peak of run.py, which started this process, when that
    is larger."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def clear_tree(directory: Path) -> None:
    if directory.is_dir():
        for path in directory.iterdir():
            path.unlink()


def monte_carlo_peak_mb(iteration) -> float:
    """Largest growth of Python-traced memory (numpy arrays included) during one
    `monte_carlo_masked_mean` call, over one more grid run under tracemalloc, in MiB.
    This is the coverage tensor's cost, which `peak_rss_mb` barely resolves."""
    import tracemalloc

    import specmask.stats as stats

    original = stats.monte_carlo_masked_mean
    peak = 0

    def measured(*args, **kwargs):
        nonlocal peak
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

    stats.monte_carlo_masked_mean = measured
    tracemalloc.start()
    try:
        iteration(0)
    finally:
        tracemalloc.stop()
        stats.monte_carlo_masked_mean = original
    return peak / 2**20


def run(plan: dict, result_path: Path) -> None:
    import_package()
    iteration = make_iteration(plan, plan["workers"], plan["out"])
    slots = plan["checked_epochs"]
    pipeline_kind = plan["kind"] != "verify"
    # Peak memory of one pass in a fresh process, as one command-line run would
    # reach.  Later iterations start new pool threads that may or may not reuse
    # the allocator arenas of earlier ones, so the peak over many iterations
    # varies by up to 10% between identical runs.
    rss = TreeRss()
    rss.start()
    try:
        iteration(0)  # warm-up: caches, lazy imports, page cache for the inputs
    finally:
        rss.stop()
    rss_mb = rss.peak_mb()
    import speed

    probe = speed.SpeedProbe(plan["workers"])  # made after the memory peak, which it must not raise
    epoch = 1
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    rows: list[dict] = []
    deadline = time.perf_counter() + plan["seconds"]

    def timed(current_epoch: int) -> float:
        nonlocal attempted, failed, rows
        probe()
        if pipeline_kind:
            clear_tree(epoch_dir(plan["out"], current_epoch, slots) / "features")
        start = time.perf_counter()
        n, bad, got = iteration(current_epoch)
        wall = time.perf_counter() - start
        attempted += n
        failed += bad
        if got is not None:
            # the same seed every iteration: the rows must not change
            if rows and got != rows:
                failed += n
            rows = got
        return wall

    if not plan["trace"]:
        while len(walls) < plan["min_iterations"] or time.perf_counter() < deadline:
            walls.append(timed(epoch))
            epoch += 1
    else:
        import spans

        tracer = None
        while len(traced_walls) < plan["min_iterations"] or time.perf_counter() < deadline:
            walls.append(timed(epoch))
            epoch += 1
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced_walls.append(timed(epoch))
            epoch += 1
            layers.append(spans.layer_metrics(tracer.spans, plan["workers"]))
        tracer.dump(Path(plan["trace_file"]))

    probe()
    probe.close()
    checked = range(max(epoch - slots, 0), epoch) if pipeline_kind else range(0)
    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": {key: statistics.median(m[key] for m in layers) for key in layers[0]} if layers else {},
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": rss_mb,
        "probe_times": probe.times,
        "rows": rows,
        # the trees the last iterations wrote, oldest first
        "checked": [epoch_dir(plan["out"], e, slots).name for e in checked],
    }
    if plan["trace"]:
        result["layers"]["stats.monte_carlo_masked_mean.peak_mb"] = (
            0.0 if pipeline_kind else monte_carlo_peak_mb(iteration)
        )
    reference_failed = 0
    if pipeline_kind:
        # the checked iterations again at another worker count, outside the timed iterations
        reference = make_iteration(plan, plan["reference_workers"], plan["reference_out"])
        for e in checked:
            reference_failed += reference(e)[1]
    result["reference_failed"] = reference_failed
    result_path.write_text(json.dumps(result), encoding="utf-8")


def setup(plan: dict, out_dir: Path) -> None:
    """The entry point on an empty input: imports, manifest parse, stats read, output dir."""
    import_package()
    import specmask.pipeline as pipeline
    import specmask.stats as stats

    if plan["kind"] == "verify":
        stats.verify_grid([], [], [], plan["trials"], plan["seed"])
        return
    import specmask.features as features
    import specmask.masking as masking

    pipeline.run_pipeline(
        pipeline.RunConfig(
            manifest_path=plan["setup_manifest"],
            output_dir=str(out_dir),
            dsp=features.DSP_PRESETS[plan["preset"]],
            policy=masking.POLICY_PRESETS[plan["policy"]],
            seed=plan["seed"],
            mode="eval" if plan["kind"] == "extract" else "train",
            stats_path=plan["setup_stats"],
            num_workers=plan["workers"],
        )
    )


if __name__ == "__main__":
    mode, plan_path = sys.argv[1], Path(sys.argv[2])
    loaded = json.loads(plan_path.read_text(encoding="utf-8"))
    if mode == "setup":
        setup(loaded, Path(sys.argv[3]))
    else:
        run(loaded, Path(sys.argv[3]))
