"""The package namespace: which names `dithersim` exports, and from where."""

from __future__ import annotations

import importlib

import dithersim

MODULES = ("analysis", "averaging", "cftable", "dynamics", "integrate")

EXPORTS = {
    "AffineSystem", "AssumptionReport", "ChenFliessTerm", "ControllerSpec",
    "ControllerVariant", "ConvergenceReport", "DitherCheck", "DitherSignal",
    "LyapunovParams", "Method", "Mono", "NussbaumCheck", "PlantParams", "PolarState",
    "QuadratureError", "RhsEval", "State", "TABLE", "Trajectory", "approximation_sweep",
    "build_averaged_rhs", "check_assumptions", "chen_fliess_simulate", "chen_fliess_step",
    "closed_loop", "convergence_report", "euler_step", "fd_jacobian", "from_polar",
    "gamma_coefficient", "lbs_limit_point", "lie_bracket", "lie_bracket_flow",
    "lie_bracket_loop", "lie_bracket_rhs", "lyapunov_rate", "lyapunov_value", "nussbaum_control",
    "nussbaum_rhs", "nussbaum_type_check", "polar_closed_loop", "polar_closed_loop_rhs",
    "polar_lbs_rhs", "proposed_control", "proposed_design_system", "proposed_rhs",
    "rk4_step", "rows_for_order", "s_cos_s", "simulate", "swapped_control",
    "swapped_design_system", "swapped_rhs", "sweep_to_csv", "to_polar",
    "willems_byrnes_control", "willems_byrnes_rhs",
}


def test_exported_names_are_pinned():
    assert len(EXPORTS) == 57
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
