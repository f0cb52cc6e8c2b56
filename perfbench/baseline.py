"""Time the four layer operations that ROADMAP aim 1 gives a baseline for.

Run from the repository root with `python3 perfbench/baseline.py`. Each
operation runs untraced and under the benchmark's tracer, and the table
sets the medians next to the ROADMAP figures with the gap to each. No
figure is gated on.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import dithersim as ds  # noqa: E402
from perfbench.harness import TMP_ROOT, machine_facts  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

PLANT = ds.PlantParams(10.0, -2.0)
START = ds.State(1.0, 0.0)
REPEATS = 7


def _rk4():
    return ds.simulate(ds.lie_bracket_loop(PLANT), START, 0.0, 3.0, 1e-4, ds.Method.RK4)


def operations(tmp: Path):
    """(label, ROADMAP ms, span name, call, calls per sample) per operation."""
    traj = _rk4()  # fig1's averaged run: 30k RK4 steps, 30001 rows
    sine, cosine = ds.DitherSignal.sine(), ds.DitherSignal.cosine()
    return [
        ("RK4, 30k steps", 62.0, "integrate.simulate", _rk4, 1),
        ("write_csv, 30k rows", 98.0, "integrate.write_csv",
         lambda: ds.Trajectory.write_csv(traj, tmp / "lbs.csv"), 1),
        ("series step, order 3", 0.18, "integrate.chen_fliess_step",
         lambda: [ds.chen_fliess_step(PLANT, START, math.tau / 400.0, 3) for _ in range(50)], 50),
        ("gamma_coefficient", 0.83, "averaging.gamma_coefficient",
         lambda: ds.gamma_coefficient(sine, cosine, 400.0), 1),
    ]


def main() -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT, prefix="baseline-"))
    tracer = Tracer()
    rows = []
    try:
        for label, roadmap_ms, span, call, per in operations(tmp):
            call()
            plain = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                call()
                plain.append((time.perf_counter() - t0) / per)
            traced = []
            for _ in range(REPEATS):
                tracer.clear()
                tracer.install()
                try:
                    call()
                finally:
                    tracer.uninstall()
                traced += [s.end - s.start for s in tracer.spans if s.name == span]
            rows.append((label, roadmap_ms, 1e3 * statistics.median(plain),
                         1e3 * statistics.median(traced)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    facts = machine_facts()
    print(f"{facts['cpu_model']}, nproc {facts['nproc']}, Python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}, commit {facts['commit']}")
    print(f"{'operation':<22} {'ROADMAP ms':>10} {'untraced ms':>12} {'gap':>7} "
          f"{'traced ms':>10} {'gap':>7}")
    for label, roadmap_ms, plain_ms, traced_ms in rows:
        print(f"{label:<22} {roadmap_ms:>10.3g} {plain_ms:>12.3g} "
              f"{plain_ms / roadmap_ms - 1:>+7.0%} {traced_ms:>10.3g} "
              f"{traced_ms / roadmap_ms - 1:>+7.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
