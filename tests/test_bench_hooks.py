"""The package names that the benchmark wraps or calls still exist.

`perfbench/spans.py` replaces module attributes named in
`perfbench/workloads.py::SPAN_NAMES`, plus the draw counters on
`masking.uniform` and `rng.next_u64_batch`, and reads some of their call
arguments by parameter name; `perfbench/worker.py` builds `pipeline.RunConfig`
by keyword.  A rename of any of these in the package would break the
benchmark without failing any other test.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import runpy
import sys
from pathlib import Path

import pytest

from specmask.pipeline import RunConfig
from specmask.stats import verify_grid

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
WORKER = WORKLOADS.with_name("worker.py")


def _hook_names() -> tuple[str, ...]:
    span_names = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")["SPAN_NAMES"]
    return (*span_names, "masking.uniform", "rng.next_u64_batch")


@pytest.mark.parametrize("name", _hook_names())
def test_benchmark_hook_is_a_package_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"specmask.{module_name}")
    assert callable(getattr(module, attr, None)), f"specmask.{name} is missing"


#: The parameters `perfbench/spans.py` reads through `inspect.signature(fn).bind`.
BOUND_PARAMETERS = {
    "features.read_wav": ("path",),
    "spfx.read_spfx": ("path",),
    "spfx.write_spfx": ("path",),
    "spfx.read_stats_container": ("path",),
    "rng.uniform_batch": ("states",),
    "stats.exact_masked_mean_multi": ("extent", "max_width", "count"),
}


@pytest.mark.parametrize("name, parameters", BOUND_PARAMETERS.items(), ids=BOUND_PARAMETERS.keys())
def test_benchmark_bound_parameters_keep_their_names(name, parameters):
    module_name, attr = name.split(".")
    signature = inspect.signature(getattr(importlib.import_module(f"specmask.{module_name}"), attr))
    assert set(parameters) <= set(signature.parameters), f"specmask.{name}{signature}"


def test_benchmark_run_configs_pass_only_fields():
    # the benchmark builds `pipeline.RunConfig` by keyword; a field it names that
    # the package drops would fail every benchmark run and no other test
    calls = [
        node
        for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "pipeline.RunConfig"
    ]
    assert calls, "perfbench/worker.py builds no pipeline.RunConfig"
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    for call in calls:
        assert not call.args, f"line {call.lineno}: RunConfig is built by keyword"
        names = {keyword.arg for keyword in call.keywords}
        assert names <= fields, f"line {call.lineno}: {sorted(names - fields)} are not RunConfig fields"


#: The hooks a verify-grid run goes through, so their spans are never empty there.
VERIFY_HOOKS = (
    "stats.exact_masked_mean_multi",
    "stats.monte_carlo_masked_mean",
    "masking.sample_axis_masks_batch",
    "rng.substream_batch",
    "rng.uniform_batch",
)


def test_verify_grid_reaches_every_verify_hook(monkeypatch):
    calls = dict.fromkeys(VERIFY_HOOKS, 0)
    for name in VERIFY_HOOKS:
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module(f"specmask.{module_name}"), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # as the benchmark does: in every package module that imported the function by name
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "specmask" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    verify_grid((3,), (2,), (1, 2), 200, seed=1)
    assert calls["stats.exact_masked_mean_multi"] == 2
    assert all(calls.values()), calls
