"""Shared fixtures and the acceptance-summary reporter.

The long reference integrations (500k RK4 steps each) and the full
assumption scan are session-scoped so the acceptance tests and the unit
tests share a single run. The terminal-summary hook prints one
"ACCEPTANCE n: PASS/FAIL" line per criterion, keyed off the `acceptance`
marker declared in pyproject.toml.

Property tests run under one `hypothesis` profile: derandomized, with no
example database and no deadline, so every run draws the same examples
and none is failed for being slow on a loaded machine. hypothesis also
mixes constants from every loaded non-test module into its draws, so
`pytest_configure` imports every test module, and with them every module
they load, before any test runs: a test then draws the same examples
whichever test files are collected with it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest
from hypothesis import settings

from dithersim import (
    Method,
    PlantParams,
    State,
    check_assumptions,
    lie_bracket_loop,
    proposed_design_system,
    simulate,
)

PLANT = PlantParams(a=10.0, b=-2.0)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except Exception:  # collection imports it again and reports the error
            pass


@pytest.fixture(scope="session")
def plant() -> PlantParams:
    return PLANT


@pytest.fixture(scope="session")
def lbs_run_from_1_0():
    """Averaged-system reference run from (1, 0): RK4, h=1e-4, t_f=50."""
    rhs = lie_bracket_loop(PLANT)
    return simulate(
        rhs, State(1.0, 0.0), 0.0, 50.0, 1e-4, Method.RK4,
        meta={"system": "lbs", "a": PLANT.a, "b": PLANT.b},
    )


@pytest.fixture(scope="session")
def lbs_run_from_1_m5():
    """Same reference run started at (1, -5)."""
    rhs = lie_bracket_loop(PLANT)
    return simulate(
        rhs, State(1.0, -5.0), 0.0, 50.0, 1e-4, Method.RK4,
        meta={"system": "lbs", "a": PLANT.a, "b": PLANT.b},
    )


@pytest.fixture(scope="session")
def proposed_assumption_report():
    """Assumption audit of the primary design on [-2, 2]^2 at defaults."""
    sys = proposed_design_system(PLANT)
    return check_assumptions(sys, ((-2.0, 2.0), (-2.0, 2.0)))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    mark = item.get_closest_marker("acceptance")
    if mark is not None and (report.when == "call" or report.failed):
        title = mark.args[1] if len(mark.args) > 1 else ""
        report.acceptance_info = (mark.args[0], title)
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, tuple[str, bool]] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            info = getattr(rep, "acceptance_info", None)
            if info is None:
                continue
            num, title = info
            ok = rep.outcome == "passed"
            prev = results.get(num)
            results[num] = (title, ok if prev is None else prev[1] and ok)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        title, ok = results[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {verdict}  {title}")
