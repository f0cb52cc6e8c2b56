"""Measurement loop of the benchmark: set-up, warm-up, timed and traced iterations.

One caller runs the workload in a closed loop: the next iteration starts
when the previous one has returned and its output has been checked. Only
the calls into dithersim are timed; checking and deleting an iteration's
artifacts are not.
The end-to-end times are scaled to a reference host speed (see
calibration.py); the unscaled figures are printed alongside.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
import yaml

from .calibration import REFERENCE_IMPORT, REFERENCE_IMPORT_S, scale, timed
from .tracing import COUNT_METRICS, LAYER_METRICS, Tracer
from .workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 3
# The tail is the highest sample with this many samples above it; a run
# with no more samples than this reports its maximum instead.
TAIL_MARGIN = 10

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "work_per_s": "1/s",  # units of work (steps or samples) per second
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = """
import sys
sys.path[:0] = [{root!r}, {src!r}]
import dithersim.cli
from pathlib import Path
from perfbench.workloads import WORKLOADS
WORKLOADS[{name!r}]({seed!r}, {tiny!r}).build(Path({inputs!r}))
"""


def tail(values: list[float]) -> tuple[float, str]:
    """Highest sample with at least TAIL_MARGIN samples above it, and how it was taken."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_MARGIN:
        return xs[-1], f"max of {n} samples (fewer than {TAIL_MARGIN + 1})"
    rank = n - TAIL_MARGIN  # 1-based rank; TAIL_MARGIN samples lie above it
    return xs[rank - 1], f"p{100.0 * rank / n:.0f} of {n} samples, {TAIL_MARGIN} above"


def machine_facts() -> dict:
    """nproc, CPU model, cache sizes, library versions and the git commit."""
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        facts["caches"][f"L{level} {kind}"] = size
    return facts


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_wall(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def measure_setup(
    name: str, seed: int, tiny: bool, tmp: Path, repeats: int
) -> list[tuple[float, float]]:
    """(wall, scale) of fresh interpreters that import dithersim.cli and build
    the inputs, each between two fresh interpreters running REFERENCE_IMPORT."""
    refs = [_child_wall(REFERENCE_IMPORT)]
    walls = []
    for i in range(repeats):
        inputs = tmp / f"setup{i}"
        inputs.mkdir()
        walls.append(_child_wall(_SETUP_CHILD.format(
            root=str(ROOT), src=str(SRC), name=name, seed=seed, tiny=tiny, inputs=str(inputs)
        )))
        refs.append(_child_wall(REFERENCE_IMPORT))
    return [
        (wall, scale(before, after, REFERENCE_IMPORT_S))
        for wall, before, after in zip(walls, refs, refs[1:])
    ]


class Iteration(NamedTuple):
    """Outcome of one iteration: wall time, host-speed scale, work done and
    problems found."""

    wall: float
    scale: float
    work: int
    problems: list[str]


def run_iteration(wl: Workload, tmp: Path, tracer: Tracer | None = None) -> Iteration:
    out = Path(tempfile.mkdtemp(dir=tmp, prefix="it"))
    try:
        if tracer is not None:
            tracer.install()
        try:
            result, wall, factor = timed(lambda: wl.run(out))
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            problems = wl.check(out, result)
        except (OSError, KeyError, ValueError) as e:  # missing or malformed output
            problems = [f"output unreadable: {type(e).__name__}: {e}"]
        work = 0 if problems else wl.work(out, result)
        return Iteration(wall, factor, work, problems)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Run one workload and return its result record.

    The record holds the contract's `correct`, `attempted`, `failed` and
    `metrics` (end-to-end metrics untraced, per-layer metrics traced),
    plus `notes` (human-readable lines), `machine` and, when traced, the
    spans of the first traced iteration.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT, prefix=f"{name}-"))
    try:
        wl = WORKLOADS[name](seed, tiny)
        inputs = tmp / "inputs"
        inputs.mkdir()
        wl.build(inputs)
        warmup = run_iteration(wl, tmp)
        if trace:
            record = _traced_loop(wl, tmp, seconds)
        else:
            setup = measure_setup(name, seed, tiny, tmp, setup_repeats)
            record = _timed_loop(wl, tmp, seconds, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    iterations = [warmup, *record.pop("iterations")]
    failures = [it for it in iterations if it.problems]
    problems = record.pop("problems", [])
    notes = record["notes"]
    notes.insert(0, f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}")
    notes.append(f"{len(failures)} of {len(iterations)} iterations failed (warm-up included)")
    for it in failures[:5]:
        notes.append("failed: " + "; ".join(it.problems[:5]))
    notes += problems
    record.update(
        correct=not failures and not problems,
        attempted=len(iterations),
        failed=len(failures),
        failed_frac=len(failures) / len(iterations),
        machine=machine_facts(),
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
    )
    return record


def _loop(seconds: float, step) -> None:
    """Call step() until `seconds` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    step()
    while time.perf_counter() < deadline:
        step()


def _timed_loop(
    wl: Workload, tmp: Path, seconds: float, setup: list[tuple[float, float]]
) -> dict:
    its: list[Iteration] = []
    _loop(seconds, lambda: its.append(run_iteration(wl, tmp)))
    walls = [it.wall * it.scale for it in its]
    tail_s, tail_how = tail(walls)
    rates = [it.work / w for it, w in zip(its, walls) if not it.problems]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_s,
        "work_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(wall * k for wall, k in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = [it.wall for it in its]
    scales = [it.scale for it in its]
    notes = [
        f"wall_tail_s is the {tail_how}",
        f"work per iteration {its[0].work} {wl.work_unit}; work_per_s counts {wl.work_unit}",
        f"unscaled: wall_s {statistics.median(raw)!r} s, wall_tail_s {tail(raw)[0]!r} s, "
        f"setup_s {statistics.median(wall for wall, _ in setup)!r} s",
        f"host-speed scale median {statistics.median(scales):.4f}, "
        f"range {min(scales):.4f}-{max(scales):.4f}",
    ]
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "walls": raw,
        "scales": scales,
        "setup": setup,
        "iterations": its,
        "notes": notes,
    }


def _traced_loop(wl: Workload, tmp: Path, seconds: float) -> dict:
    """Alternate untraced and traced iterations; the traced ones give the
    per-layer metrics and the pair gives the tracing overhead."""
    tracer = Tracer()
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    layers: list[dict] = []
    spans: list[dict] = []

    def step() -> None:
        plain.append(run_iteration(wl, tmp))
        tracer.clear()
        origin = time.perf_counter()
        traced.append(run_iteration(wl, tmp, tracer))
        layers.append(tracer.metrics())
        if not spans:
            spans.extend(s.to_dict(origin) for s in tracer.spans)
        tracer.clear()

    _loop(seconds, step)
    problems = [
        f"per-layer count {k} differs between traced iterations"
        for k in COUNT_METRICS
        if len({m[k] for m in layers}) > 1
    ]
    metrics = {
        k: {
            "value": (
                layers[0][k] if k in COUNT_METRICS else statistics.median(m[k] for m in layers)
            ),
            "unit": unit,
        }
        for k, unit in LAYER_METRICS.items()
    }
    overhead = statistics.median(it.wall * it.scale for it in traced) / statistics.median(
        it.wall * it.scale for it in plain
    ) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    notes = [
        f"tracing overhead {100 * overhead:.1f}% "
        f"(median of {len(traced)} traced against {len(plain)} untraced iterations)"
    ]
    return {
        "metrics": metrics,
        "iterations": plain + traced,
        "problems": problems,
        "notes": notes,
        "spans": spans,
    }


def write_record(record: dict) -> Path:
    """Save the full record, spans included, under .bench_results/."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path
