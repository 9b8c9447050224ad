"""Package layout: subpackages re-export nothing.

Every spawned shard worker imports the study module afresh, and
importing a module first runs each enclosing package's ``__init__``.
A subpackage ``__init__`` that re-exports its modules makes every
worker import them all; these tests pin the worker's footprint and the
docstring-only ``__init__`` files that keep it small.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: The one subpackage whose ``__init__`` is its API.
EXPORTING_PACKAGES = {SRC / "repro" / "core" / "classifiers" / "__init__.py"}

#: What a shard worker runs none of.
NOT_LOADED = (
    "repro.analysis",
    "repro.baselines",
    "repro.proxy",
    "repro.scenarios",
    "repro.experiments.flash_crowd",
    "repro.experiments.hit_rate",
    "repro.experiments.placement_study",
    "repro.experiments.probe_study",
    "repro.experiments.scaling",
    "repro.experiments.sensitivity",
)


def modules_after_import(module: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after one import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import json, sys, {module}; "
            "print(json.dumps(sorted(sys.modules)))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return {name for name in json.loads(out) if name.startswith("repro")}


def test_shard_worker_module_imports_only_what_it_runs():
    loaded = modules_after_import("repro.experiments.multiplexing_study")
    assert "repro.experiments.multiplexing_study" in loaded
    assert "repro.sim.exchange" in loaded
    for name in NOT_LOADED:
        assert not any(
            mod == name or mod.startswith(name + ".") for mod in loaded
        ), f"{name} loaded by the shard worker's module"


def test_subpackage_inits_hold_only_a_docstring():
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    subpackages = [
        path
        for path in inits
        if path.parent != SRC / "repro" and path not in EXPORTING_PACKAGES
    ]
    assert len(subpackages) >= 12
    for path in subpackages:
        body = ast.parse(path.read_text()).body
        assert len(body) == 1, f"{path.relative_to(SRC)} does more than document"
        assert isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ), f"{path.relative_to(SRC)} lacks a docstring"
        assert isinstance(body[0].value.value, str)
