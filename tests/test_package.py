"""The package namespace: which names `dithersim` exports, and from where."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dithersim

MODULES = ("analysis", "averaging", "cftable", "dynamics", "integrate")

EXPORTS = {
    "AffineSystem", "AssumptionReport", "ChenFliessTerm", "ControllerSpec",
    "ControllerVariant", "ConvergenceReport", "DitherCheck", "DitherSignal",
    "LyapunovParams", "Method", "Mono", "NussbaumCheck", "PlantParams", "PolarState",
    "QuadratureError", "State", "TABLE", "Trajectory", "approximation_sweep",
    "build_averaged_rhs", "check_assumptions", "chen_fliess_simulate", "chen_fliess_step",
    "closed_loop", "control", "convergence_report", "euler_step", "fd_jacobian", "from_polar",
    "gamma_coefficient", "lbs_limit_point", "lie_bracket", "lie_bracket_flow",
    "lie_bracket_loop", "lie_bracket_rhs", "lyapunov_rate", "lyapunov_value",
    "nussbaum_type_check", "polar_closed_loop", "polar_lbs_rhs", "proposed_design_system",
    "rhs", "rk4_step", "rows_for_order", "s_cos_s", "simulate", "swapped_design_system",
    "sweep_to_csv", "to_polar",
}


def test_exported_names_are_pinned():
    assert len(EXPORTS) == 49
    assert len(dithersim.__all__) == len(set(dithersim.__all__))
    assert set(dithersim.__all__) == EXPORTS | {"__version__"}


def test_each_export_is_its_module_object():
    """Every exported name comes from exactly one module's __all__ and is
    the very object that module defines."""
    homes: dict[str, str] = {}
    for name in MODULES:
        module = importlib.import_module(f"dithersim.{name}")
        for export in module.__all__:
            assert export not in homes, f"{export} exported by {homes[export]} and {name}"
            homes[export] = name
            assert getattr(dithersim, export) is getattr(module, export), export
    assert set(homes) == EXPORTS


def _fresh(code: str, cwd: Path | None = None) -> str:
    """What a fresh interpreter running code on this package in cwd prints."""
    src = str(Path(dithersim.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-c", code]
    out = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


README = Path(__file__).resolve().parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_runs(block, tmp_path):
    """Each ```python block of README.md runs in a fresh interpreter, so the
    library examples cannot keep naming a removed function."""
    _fresh(README_BLOCKS[block], cwd=tmp_path)


def test_cli_import_loads_no_scipy():
    """scipy is a test-only reference: a fresh interpreter importing the CLI
    must not load any of it."""
    code = (
        "import sys, dithersim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh(code) == "[]"


def test_cli_import_defers_orjson():
    """orjson formats CSV cells and is imported at the first CSV write, so
    `check`, which writes none, does not load it."""
    assert _fresh("import sys, dithersim.cli; print('orjson' in sys.modules)") == "False"


def test_cli_import_compiles_nothing():
    """Laws, averaged fields and kernels are compiled on first use, so
    importing the CLI compiles none of them."""
    code = "import dithersim.cli, dithersim.dynamics as d; print(d._define.cache_info().currsize)"
    assert _fresh(code) == "0"


def test_every_benchmark_tracer_target_resolves():
    """perfbench's tracer silently skips a target it cannot find, so a
    rename here would read 0 in a per-layer metric while tests pass. A
    fresh interpreter keeps perfbench's constants out of the property
    tests' draws."""
    code = (
        "import importlib, json\n"
        "from dithersim.integrate import Trajectory\n"
        "from perfbench.tracing import Tracer\n"
        "targets = Tracer()._install_targets()\n"
        "missing = [f'{m}.{n}' for m, n in targets\n"
        "           if not callable(getattr(importlib.import_module(m), n, None))]\n"
        "missing += [f'Trajectory.{a}' for a in ('write_csv', 'write_meta')\n"
        "            if not callable(Trajectory.__dict__.get(a))]\n"
        "print(json.dumps([len(targets), missing]))\n"
    )
    count, missing = json.loads(_fresh(code, cwd=README.parent))
    assert count > 0
    assert missing == []
