"""The package functions that the benchmark's tracer wraps by name still exist.

`perfbench/spans.py` replaces module attributes named in
`perfbench/workloads.py::SPAN_NAMES`, plus the draw counters on
`masking.uniform` and `rng.next_u64_batch`, and reads some of their call
arguments by parameter name.  A rename of either in the package would break
the benchmark without failing any other test.
"""

from __future__ import annotations

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
