"""What importing the package loads, and what it leaves out.

Every name a package module, test module or demo imports is used in that
module: no linter ships with the project, so this check catches imports left
behind when code is deleted or moved.  Package-level names load their
submodule on first use, so an entry point loads only the modules it runs; the
subprocess checks below start a fresh interpreter, since this one has
imported the whole package already.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "specmask"
MODULES = [*sorted(PACKAGE_DIR.glob("*.py")), *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("demos/*.py"))]

#: submodule -> the names `specmask` exports from it, as the eager package did
PACKAGE_NAMES = {
    "errors": [
        "ConfigError", "DivergenceError", "EmptyInputError", "FormatError", "ManifestError",
        "MaskBoundsError", "SpecmaskError", "UnsupportedFormatError",
    ],
    "features": ["DSP_PRESETS", "DspConfig", "FeatureMatrix", "PcmSignal", "extract", "read_wav"],
    "manifest": ["Manifest", "ManifestRecord", "format_manifest", "parse_manifest", "slice_manifest"],
    "masking": [
        "POLICY_PRESETS", "AugmentPolicy", "MaskSpec", "apply_masks", "augment", "masks_from_text",
        "masks_to_text", "resolve_policy", "sample_axis_masks", "sample_policy_masks",
    ],
    "pipeline": ["RunConfig", "RunSummary", "run_pipeline"],
    "render": ["render_masks_pgm"],
    "rng": ["RngState", "derive_utterance_seed", "fnv1a_64", "next_u64", "uniform"],
    "spfx": ["read_spfx", "read_stats_container", "write_spfx", "write_stats_container"],
    "stats": [
        "CorpusStats", "MaskFractionReport", "accumulate_stats", "exact_masked_mean",
        "exact_masked_mean_multi", "monte_carlo_masked_mean", "standardize", "verify_grid",
    ],
    "toy": [
        "DemoParams", "LearningCurve", "SyntheticDataset", "ToyModel", "default_params",
        "forward_nll", "generate_dataset", "gradient", "train",
    ],
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no other node of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_after(statement: str, candidates: list[str]) -> list[str]:
    """Which of `candidates` are in `sys.modules` after `statement` runs in a fresh interpreter."""
    script = f"import json, sys\n{statement}\nprint(json.dumps([m for m in {candidates!r} if m in sys.modules]))"
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_pipeline_and_stats_load_no_demo_render_cli_fractions_or_pool():
    unwanted = ["specmask.toy", "specmask.render", "specmask.cli", "fractions", "concurrent.futures"]
    assert loaded_after("import specmask.pipeline, specmask.stats", unwanted) == []


def test_mapping_fewer_than_two_records_starts_no_pool():
    statement = """
from specmask.manifest import ManifestRecord
from specmask.pipeline import RunSummary, map_records
for records in ([], [ManifestRecord("a", "a.wav")]):
    summary = RunSummary()
    assert list(map_records(records, lambda record: record.path, 2, summary)) == [r.path for r in records]
    assert summary.utterances_processed == len(records)
"""
    assert loaded_after(statement, ["concurrent.futures", "logging"]) == []


def test_cli_loads_no_demo_render_or_fractions():
    assert loaded_after("import specmask.cli", ["specmask.toy", "specmask.render", "fractions"]) == []


def test_every_package_name_resolves_to_its_submodule_attribute():
    script = f"""
import importlib, sys
import specmask
for module_name, names in {PACKAGE_NAMES!r}.items():
    assert getattr(specmask, module_name) is importlib.import_module("specmask." + module_name), module_name
    for name in names:
        namespace = {{}}
        exec(f"from specmask import {{name}}", namespace)
        assert namespace[name] is getattr(sys.modules["specmask." + module_name], name), name
"""
    assert sum(map(len, PACKAGE_NAMES.values())) == 59
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr


def test_package_import_loads_no_submodule_and_lists_every_name():
    import specmask

    assert loaded_after("import specmask", [f"specmask.{name}" for name in PACKAGE_NAMES]) == []
    expected = [*PACKAGE_NAMES, *(name for names in PACKAGE_NAMES.values() for name in names)]
    assert sorted(specmask.__all__) == sorted(expected)


def test_an_unknown_package_name_is_an_attribute_error():
    import specmask

    assert not hasattr(specmask, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from specmask import no_such_name", {})
