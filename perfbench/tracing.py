"""Per-layer tracing for the benchmark's traced runs.

The layers are dithersim's six modules: cli, dynamics, integrate,
cftable, averaging and analysis. `Tracer.install` wraps their public
functions from outside the package, at every import site: `cli` and
`analysis` bind `simulate` by name, so the wrapper replaces every module
attribute that is the original function, not only the one where it is
defined. `uninstall` puts the originals back.

Calls that happen a few thousand times per iteration or less become spans
(name, start, end, parent, thread), kept in memory and written out at the
end of the run. Calls made hundreds of thousands of times -- the
right-hand-side and control closures, the audit's system fields,
`fd_jacobian` and `rows_for_order` -- are only counted and timed, and
their time is charged to the span that made them. A span's self time is
its duration minus the part of that interval its child spans cover and
minus the time of those counted calls.

Span times are wall-clock. The CLI runs some jobs on a thread pool, so
spans on different threads can overlap and interleave under the
interpreter lock; their parent is the caller's open span on the main
thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

from dithersim import averaging, cftable, integrate

MODULES = (
    "dithersim",
    "dithersim.cli",
    "dithersim.dynamics",
    "dithersim.integrate",
    "dithersim.cftable",
    "dithersim.averaging",
    "dithersim.analysis",
)

# Every per-layer metric a traced iteration reports, with its unit.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.calls": "count",
    "dynamics.rhs_evals": "count",
    "dynamics.input_evals": "count",
    "dynamics.rhs_s": "s",
    "dynamics.input_s": "s",
    "integrate.simulate_self_s": "s",
    "integrate.euler_steps": "count",
    "integrate.rk4_steps": "count",
    "integrate.write_csv_s": "s",
    "integrate.write_csv_rows": "count",
    "integrate.write_csv_bytes": "bytes",
    "integrate.write_meta_s": "s",
    "integrate.series_steps": "count",
    "integrate.series_step_s.order0": "s",
    "integrate.series_step_s.order1": "s",
    "integrate.series_step_s.order2": "s",
    "integrate.series_step_s.order3": "s",
    "integrate.diverged_runs": "count",
    "integrate.kept_step_ratio": "ratio",
    "cftable.rows_for_order_calls": "count",
    "cftable.rows_for_order_s": "s",
    "cftable.monomials_evaluated": "count",
    "averaging.check_assumptions_s": "s",
    "averaging.fd_jacobian_calls": "count",
    "averaging.fd_jacobian_s": "s",
    "averaging.field_evals": "count",
    "averaging.fd_calls_per_sample": "count",
    "averaging.lie_bracket_calls": "count",
    "averaging.gamma_calls": "count",
    "averaging.gamma_s": "s",
    "analysis.approximation_sweep_self_s": "s",
    "analysis.nussbaum_check_s": "s",
    "analysis.sweep_to_csv_s": "s",
}

# Metrics that must repeat exactly from one traced iteration to the next.
COUNT_METRICS = tuple(
    name
    for name, unit in LAYER_METRICS.items()
    if unit in ("count", "bytes", "ratio")
)


class Span:
    """One traced call. `leaf` maps a counted callee to [calls, seconds]."""

    __slots__ = ("sid", "name", "parent", "thread", "start", "end", "leaf", "info")

    def __init__(self, sid: int, name: str, parent: int | None) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.leaf: dict[str, list] = {}
        self.info: dict = {}

    def charge(self, name: str, calls: int, seconds: float) -> None:
        entry = self.leaf.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "leaf": self.leaf,
            "info": self.info,
        }


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside span."""
    total = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Collects spans and counts for the calls made between `install` and
    `uninstall`; `metrics` summarises them and `clear` drops them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._orphan = Span(0, "<outside spans>", None)
        self._lock = threading.Lock()
        self._cells: list[tuple[str, list]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._monomials = {
            (order, taylor): sum(
                len(row.y_terms) + len(row.k_terms)
                for row in cftable.rows_for_order(order, drift_taylor=taylor)
            )
            for order in range(4)
            for taylor in (False, True)
        }

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:  # a worker thread of the CLI's pool
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), name, parent.sid if parent else None)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _charge(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].charge(name, 1, seconds)
        else:
            with self._lock:
                self._orphan.charge(name, 1, seconds)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, info=None):
        """Wrap fn in a span; info(args, kwargs, result) fills span.info."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        """Wrap fn so each call is counted and timed against the open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge(name, perf_counter() - t0)

        return wrapper

    def _counted(self, kind: str, fn, timed: bool = True):
        """Wrap a closure with its own [calls, seconds] cell.

        Each closure is called from one thread only, so its cell needs no
        lock; the spans that call it read the cell before and after.
        """
        cell = [0, 0.0]
        self._cells.append((kind, cell))
        if timed:

            def counted(*args):
                t0 = perf_counter()
                result = fn(*args)
                cell[1] += perf_counter() - t0
                cell[0] += 1
                return result

        else:

            def counted(*args):
                cell[0] += 1
                return fn(*args)

        counted.cell = cell
        return counted

    def _closed_loop(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rhs, control = fn(*args, **kwargs)
            return self._counted("rhs", rhs), self._counted("input", control)

        return wrapper

    def _rhs_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._counted("rhs", fn(*args, **kwargs))

        return wrapper

    def _system_factory(self, fn):
        """Wrap the drift and fields of the returned AffineSystem in counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sys_ = fn(*args, **kwargs)
            return averaging.AffineSystem(
                self._counted("field", sys_.drift, timed=False),
                tuple(self._counted("field", f, timed=False) for f in sys_.fields),
                sys_.dithers,
            )

        return wrapper

    def _simulate(self, fn):
        """Span around simulate that charges its closures' time to it."""

        @functools.wraps(fn)
        def wrapper(rhs, *args, **kwargs):
            closures = (("rhs", rhs), ("input", kwargs.get("input_fn")))
            cells = {kind: f.cell for kind, f in closures if hasattr(f, "cell")}
            before = {kind: tuple(cell) for kind, cell in cells.items()}
            span = self._open("integrate.simulate")
            try:
                traj = fn(rhs, *args, **kwargs)
            finally:
                self._close(span)
            for kind, cell in cells.items():
                span.charge(kind, cell[0] - before[kind][0], cell[1] - before[kind][1])
            span.info = _run_info(traj)
            return traj

        return wrapper

    def _install_targets(self):
        sig = inspect.signature(averaging.check_assumptions)

        def audit_info(args, kwargs, report):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return {"samples": a["grid"] ** len(a["region"]) * a["time_samples"]}

        def series_info(args, kwargs, state):
            order = args[3] if len(args) > 3 else kwargs["order"]
            taylor = kwargs.get("drift_taylor", False)
            return {"order": order, "monomials": self._monomials[(order, taylor)]}

        return {
            ("dithersim.cli", "main"): lambda f: self._span("cli.main", f),
            ("dithersim.dynamics", "closed_loop"): self._closed_loop,
            ("dithersim.dynamics", "lie_bracket_loop"): self._rhs_factory,
            ("dithersim.integrate", "simulate"): self._simulate,
            ("dithersim.integrate", "chen_fliess_simulate"): lambda f: self._span(
                "integrate.chen_fliess_simulate", f, lambda a, k, r: _run_info(r)
            ),
            ("dithersim.integrate", "chen_fliess_step"): lambda f: self._span(
                "integrate.chen_fliess_step", f, series_info
            ),
            ("dithersim.cftable", "rows_for_order"): lambda f: self._leaf(
                "cftable.rows_for_order", f
            ),
            ("dithersim.averaging", "check_assumptions"): lambda f: self._span(
                "averaging.check_assumptions", f, audit_info
            ),
            ("dithersim.averaging", "fd_jacobian"): lambda f: self._leaf(
                "averaging.fd_jacobian", f
            ),
            ("dithersim.averaging", "lie_bracket"): lambda f: self._span(
                "averaging.lie_bracket", f
            ),
            # Only so that the A3 sweeps' fd_jacobian calls are not charged
            # to the A2 scan in averaging.fd_calls_per_sample.
            ("dithersim.averaging", "_directional_derivative"): lambda f: self._span(
                "averaging._directional_derivative", f
            ),
            ("dithersim.averaging", "gamma_coefficient"): lambda f: self._span(
                "averaging.gamma_coefficient", f
            ),
            ("dithersim.averaging", "proposed_design_system"): self._system_factory,
            ("dithersim.averaging", "swapped_design_system"): self._system_factory,
            ("dithersim.analysis", "approximation_sweep"): lambda f: self._span(
                "analysis.approximation_sweep", f
            ),
            ("dithersim.analysis", "nussbaum_type_check"): lambda f: self._span(
                "analysis.nussbaum_type_check", f
            ),
            ("dithersim.analysis", "sweep_to_csv"): lambda f: self._span(
                "analysis.sweep_to_csv", f
            ),
        }

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every dithersim module attribute bound to it."""
        if self._patches:
            raise RuntimeError("Tracer already installed")
        modules = [sys.modules[m] for m in MODULES]
        for (home, attr), make in self._install_targets().items():
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                continue
            wrapped = make(original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
        traj_cls = integrate.Trajectory
        for attr, info in (
            ("write_csv", lambda a, k, path: {"rows": len(a[0]), "bytes": path.stat().st_size}),
            ("write_meta", None),
        ):
            original = traj_cls.__dict__[attr]
            self._patches.append((traj_cls, attr, original))
            setattr(traj_cls, attr, self._span(f"integrate.{attr}", original, info))
        self._local.stack = self._main_stack

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- summary -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts collected since `clear`."""
        spans = self.spans
        children: dict[int, list[Span]] = defaultdict(list)
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
            by_name[s.name].append(s)

        def self_time(name: str) -> float:
            return sum(
                (s.end - s.start)
                - _covered(s, children[s.sid])
                - sum(secs for _, secs in s.leaf.values())
                for s in by_name[name]
            )

        def total(name: str) -> float:
            return sum(s.end - s.start for s in by_name[name])

        leaf: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in [*spans, self._orphan]:
            for name, (calls, secs) in s.leaf.items():
                leaf[name][0] += calls
                leaf[name][1] += secs
        cells: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for kind, (calls, secs) in self._cells:
            cells[kind][0] += calls
            cells[kind][1] += secs

        runs = [s.info for s in by_name["integrate.simulate"]]
        series_runs = [s.info for s in by_name["integrate.chen_fliess_simulate"]]
        attempted = sum(r["attempted"] for r in runs + series_runs)
        stored = sum(r["stored"] for r in runs + series_runs)
        steps = by_name["integrate.chen_fliess_step"]
        audits = by_name["averaging.check_assumptions"]
        a2_samples = sum(s.info["samples"] for s in audits)
        a2_fd_calls = sum(s.leaf.get("averaging.fd_jacobian", (0, 0.0))[0] for s in audits)
        csvs = by_name["integrate.write_csv"]

        m = {
            "cli.self_s": self_time("cli.main"),
            "cli.calls": len(by_name["cli.main"]),
            "dynamics.rhs_evals": cells["rhs"][0],
            "dynamics.input_evals": cells["input"][0],
            "dynamics.rhs_s": cells["rhs"][1],
            "dynamics.input_s": cells["input"][1],
            "integrate.simulate_self_s": self_time("integrate.simulate"),
            "integrate.euler_steps": sum(r["attempted"] for r in runs if r["method"] == "euler"),
            "integrate.rk4_steps": sum(r["attempted"] for r in runs if r["method"] == "rk4"),
            "integrate.write_csv_s": total("integrate.write_csv"),
            "integrate.write_csv_rows": sum(s.info["rows"] for s in csvs),
            "integrate.write_csv_bytes": sum(s.info["bytes"] for s in csvs),
            "integrate.write_meta_s": total("integrate.write_meta"),
            "integrate.series_steps": len(steps),
            "integrate.diverged_runs": sum(r["diverged"] for r in runs + series_runs),
            "integrate.kept_step_ratio": stored / attempted if attempted else 0.0,
            "cftable.rows_for_order_calls": leaf["cftable.rows_for_order"][0],
            "cftable.rows_for_order_s": leaf["cftable.rows_for_order"][1],
            "cftable.monomials_evaluated": sum(s.info["monomials"] for s in steps),
            "averaging.check_assumptions_s": total("averaging.check_assumptions"),
            "averaging.fd_jacobian_calls": leaf["averaging.fd_jacobian"][0],
            "averaging.fd_jacobian_s": leaf["averaging.fd_jacobian"][1],
            "averaging.field_evals": cells["field"][0],
            "averaging.fd_calls_per_sample": a2_fd_calls / a2_samples if a2_samples else 0.0,
            "averaging.lie_bracket_calls": len(by_name["averaging.lie_bracket"]),
            "averaging.gamma_calls": len(by_name["averaging.gamma_coefficient"]),
            "averaging.gamma_s": total("averaging.gamma_coefficient"),
            "analysis.approximation_sweep_self_s": self_time("analysis.approximation_sweep"),
            "analysis.nussbaum_check_s": total("analysis.nussbaum_type_check"),
            "analysis.sweep_to_csv_s": total("analysis.sweep_to_csv"),
        }
        for order in range(4):
            own = [s for s in steps if s.info["order"] == order]
            m[f"integrate.series_step_s.order{order}"] = (
                sum(s.end - s.start for s in own) / len(own) if own else 0.0
            )
        return {
            name: m[name] if unit in ("count", "bytes") else float(m[name])
            for name, unit in LAYER_METRICS.items()
        }

    def clear(self) -> None:
        self.spans = []
        self._cells = []
        self._orphan = Span(0, "<outside spans>", None)


def _run_info(traj) -> dict:
    """Steps attempted and kept by one simulate or chen_fliess_simulate run."""
    stored = len(traj) - 1
    return {
        "method": traj.meta.get("method", "series"),
        "attempted": stored + traj.diverged,
        "stored": stored,
        "diverged": int(traj.diverged),
    }
