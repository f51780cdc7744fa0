"""In-memory spans recorded by wrapping the package's public functions.

The wrappers are installed from the benchmark, by replacing module attributes,
so the package's code is unchanged.  Every module that imported a wrapped
function by name gets the wrapper too (e.g. `pipeline.read_wav`).  A span holds
its name, start, end, parent and the utterance or verify-cell id it ran for.
Spans started on a thread with no open span (the pipeline's pool threads)
take the innermost open span of the thread that installed the tracer as their
parent.  Self time is the span's duration minus the part of it that its
children cover, so concurrent children are counted once.

Calls made in other processes are invisible to these wrappers.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import SPAN_NAMES


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "counts")

    def __init__(self, name: str, parent: "Span | None", tag: str | None) -> None:
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = self.end = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by id(span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {
        id(span): (span.end - span.start) - covered_length(children.get(id(span), []), span.start, span.end)
        for span in spans
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._home_stack: list[Span] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def span_wrapper(self, name, fn, tag=None, count=None):
        """Wrap `fn` so each call records a span; `tag(arguments)` names the utterance
        or cell and sticks to the thread until the next tag; `count(span, arguments,
        result)` adds counts.  Both see the call's arguments by parameter name."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            local = self._local
            arguments = signature.bind(*args, **kwargs).arguments if tag or count else None
            if tag is not None:
                local.tag = tag(arguments)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else None
            span = Span(name, parent, getattr(local, "tag", None))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                count(span, arguments, result)
            return result

        return wrapper

    def count_wrapper(self, fn, count):
        """Wrap `fn` so each call adds counts to the innermost open span, without a span of its own."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.current())
            return result

        return wrapper

    def replace(self, module, attr: str, wrapper, everywhere: bool) -> None:
        """Point `module.attr` at `wrapper`; with `everywhere`, also every package
        module that imported the same function by name."""
        original = getattr(module, attr)
        targets = [module]
        if everywhere:
            targets = [
                m
                for key, m in list(sys.modules.items())
                if key.split(".")[0] == "specmask" and getattr(m, attr, None) is original
            ]
        for target in targets:
            self._restore.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write every span once, as JSON lines of name, start, end, parent index and tag."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = index.get(id(span.parent)) if span.parent is not None else None
                fh.write(
                    json.dumps(
                        {"name": span.name, "start": span.start, "end": span.end, "parent": parent, "id": span.tag, "counts": span.counts}
                    )
                    + "\n"
                )


def _stem(arguments) -> str:
    return Path(arguments["path"]).stem


def _no_tag(arguments) -> None:
    return None


def _cell(a) -> str:
    return f"cell:{a['extent']}:{a['max_width']}:{a['count']}"


def _exact_tuples(span, a, result) -> None:
    k = min(a["count"], a["extent"])
    span.add("tuples", (a["max_width"] + 1) ** k * math.perm(a["extent"], k) if k else 0)


def _next_u64_in_uniform(span) -> None:
    if span is not None and span.name == "rng.uniform_batch":
        span.add("next_u64_calls", 1)


def _scalar_draw(span) -> None:
    if span is not None:
        span.add("draws", 1)


@contextmanager
def installed(tracer: Tracer):
    """Install the span and count wrappers on the package's modules for the duration."""
    from specmask import features, manifest, masking, pipeline, rng, spfx, stats

    def frames(span, arguments, result):
        span.add("frames", result.shape[0])

    def audio(span, arguments, result):
        span.add("audio_s", result.samples.size / result.sample_rate)

    def written(span, arguments, result):
        span.add("bytes_written", os.path.getsize(arguments["path"]))

    def read(span, arguments, result):
        span.add("bytes_read", os.path.getsize(arguments["path"]))

    def masks(span, arguments, result):
        span.add("masks", len(result[0]))

    def batch_masks(span, arguments, result):
        span.add("batch_masks", result[0].size)

    def batch_draws(span, arguments, result):
        span.add("draws", len(arguments["states"]))

    spans = (
        (features, "read_wav", _stem, audio),
        (features, "frame_and_window", None, frames),
        (features, "power_spectrum", None, None),
        (features, "mel_energies", None, None),
        (features, "mfcc_from_logmel", None, None),
        (spfx, "write_spfx", None, written),
        (spfx, "read_spfx", _stem, read),
        (spfx, "read_stats_container", None, read),
        (stats, "accumulate_stats", _no_tag, None),
        (stats, "standardize", None, None),
        (stats, "monte_carlo_masked_mean", None, None),
        (stats, "exact_masked_mean_multi", _cell, _exact_tuples),
        (stats, "verify_grid", _no_tag, None),
        (masking, "sample_policy_masks", None, masks),
        (masking, "apply_masks", None, None),
        (masking, "masks_to_text", None, None),
        (masking, "sample_axis_masks_batch", None, batch_masks),
        (rng, "substream_batch", None, None),
        (rng, "uniform_batch", None, batch_draws),
        (rng, "derive_utterance_seed", None, None),
        (manifest, "parse_manifest", None, None),
        (pipeline, "run_pipeline", _no_tag, None),
    )
    try:
        for module, attr, tag, count in spans:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            tracer.replace(module, attr, tracer.span_wrapper(name, getattr(module, attr), tag, count), everywhere=True)
        # counts only: scalar draws made by the start-rejection loop, and the
        # next_u64_batch calls uniform_batch makes (more than one means it redrew)
        tracer.replace(masking, "uniform", tracer.count_wrapper(masking.uniform, _scalar_draw), everywhere=False)
        tracer.replace(rng, "next_u64_batch", tracer.count_wrapper(rng.next_u64_batch, _next_u64_in_uniform), everywhere=False)
        yield tracer
    finally:
        tracer.uninstall()


def _ancestor(span: Span, name: str) -> Span | None:
    while span is not None and span.name != name:
        span = span.parent
    return span


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (masked_cell_fraction and
    trace.overhead_s come from elsewhere)."""
    own = self_times(spans)
    out = {f"{name}.self_s": 0.0 for name in SPAN_NAMES}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        out[f"{span.name}.self_s"] += own[id(span)]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value

    def total(*keys: str) -> float:
        return sum(counts.get(k, 0) for k in keys)

    out["features.frames"] = total("features.frame_and_window.frames")
    out["features.audio_s"] = total("features.read_wav.audio_s")
    out["spfx.bytes_written"] = total("spfx.write_spfx.bytes_written")
    out["spfx.bytes_read"] = total("spfx.read_spfx.bytes_read", "spfx.read_stats_container.bytes_read")
    out["stats.exact.tuples"] = total("stats.exact_masked_mean_multi.tuples")
    out["masking.masks"] = total("masking.sample_policy_masks.masks")
    # each accepted mask used one width draw and one start draw
    accepted = 2 * total("masking.sample_policy_masks.masks", "masking.sample_axis_masks_batch.batch_masks")
    draws = total("masking.sample_policy_masks.draws", "rng.uniform_batch.draws")
    out["masking.draw_yield"] = accepted / draws if draws else 0.0
    uniform_calls = calls.get("rng.uniform_batch", 0)
    out["rng.uniform_batch.draws_per_call"] = (
        total("rng.uniform_batch.next_u64_calls") / uniform_calls if uniform_calls else 0.0
    )

    # per-utterance time: the envelope of the spans one utterance ran under one run_pipeline call
    envelopes: dict[tuple[int, str], list[float]] = {}
    for span in spans:
        root = _ancestor(span.parent, "pipeline.run_pipeline")
        if root is None or span.tag is None:
            continue
        env = envelopes.setdefault((id(root), span.tag), [span.start, span.end])
        env[0] = min(env[0], span.start)
        env[1] = max(env[1], span.end)
    pipeline_wall = sum(s.end - s.start for s in spans if s.name == "pipeline.run_pipeline")
    busy = sum(end - start for start, end in envelopes.values())
    out["pipeline.worker_utilization"] = busy / (pipeline_wall * workers) if pipeline_wall else 0.0
    return out
