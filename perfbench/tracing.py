"""Spans and counters around hovi's layer boundaries, installed from outside.

hovi carries no instrumentation, so the benchmark replaces module
attributes at the sites where one layer calls into another and restores
them afterwards.  A wrapper records a span: its name, the name of the
span that was open when it started (its parent), its duration and its
self time (duration minus the time covered by child spans).  Spans are
aggregated in memory per (name, parent) and reduced to the per-layer
metrics at the end of each unit.

Every wrapped attribute must exist: a rename in hovi makes installation
fail instead of silently reading zero.  ``hovi.delsolve._fd_jacobian`` is
the one boundary reachable only through a private name.
"""
from __future__ import annotations

import time
from collections import defaultdict
from statistics import median

import numpy as np

import hovi.applications
import hovi.cli
import hovi.core
import hovi.delsolve
import hovi.derivatives
import hovi.geometry
import hovi.timedep
from hovi.errors import NonConvergenceError

_perf = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name: str, make_wrapper) -> None:
        if not hasattr(owner, name):
            raise AttributeError(f"benchmark hook target {owner.__name__}.{name} is missing")
        original = getattr(owner, name)
        own = name in vars(owner)
        setattr(owner, name, make_wrapper(original))
        self._undo.append((owner, name, original, own))

    def restore(self) -> None:
        while self._undo:
            owner, name, original, own = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


class IterationCounter:
    """Newton iterations summed over every ``newton_solve`` call.

    Installed in untraced runs too: one extra Python call per solve.  A
    solve that stops at the iteration cap reports its count through the
    ``NonConvergenceError``.
    """

    def __init__(self):
        self.iterations = 0

    def wrap(self, newton_solve):
        def counted(*args, **kwargs):
            try:
                x, report = newton_solve(*args, **kwargs)
            except NonConvergenceError as err:
                if err.report is not None:
                    self.iterations += err.report.iterations
                raise
            self.iterations += report.iterations
            return x, report

        return counted


class Tracer:
    """In-memory span aggregates keyed by (name, parent name)."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.warm_iterations = 0
        self._stack = []

    def reset(self) -> None:
        self.stats.clear()
        self.warm_iterations = 0

    def span(self, name: str, fn):
        stack = self._stack
        stats = self.stats

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append((name, frame))
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                parent = None
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1][0] += dt
                rec = stats[name, parent]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]

        return traced

    def calls(self, name, parent=None):
        """Calls of ``name``; only those made directly under ``parent`` if given."""
        return sum(
            v[0] for (n, p), v in self.stats.items() if n == name and parent in (None, p)
        )

    def total(self, name):
        return sum(v[1] for (n, _), v in self.stats.items() if n == name)

    def self_time(self, name):
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)


def install_counter(patches: Patches, counter: IterationCounter) -> None:
    patches.replace(hovi.delsolve, "newton_solve", counter.wrap)


def install_tracer(patches: Patches, tracer: Tracer) -> None:
    """Wrap each layer boundary the benchmark's workloads cross.

    Call after ``install_counter`` so the Newton span encloses the counter.
    """
    span = tracer.span

    def wrap(owner, attr, name):
        patches.replace(owner, attr, lambda fn: span(name, fn))

    for module in (hovi.delsolve, hovi.geometry, hovi.applications):
        wrap(module, "partial", "derivatives.partial")
    wrap(hovi.derivatives, "partial_fd", "derivatives.partial_fd")
    for module in (hovi.core, hovi.derivatives, hovi.delsolve):
        wrap(module, "as_window", "core.as_window")
    wrap(hovi.core.WindowFunction, "value", "core.window_value")

    def residual_span(residual):
        # newton_solve hands its (already traced) residual on to _fd_jacobian;
        # solve_masked's structural probe passes an untraced one.
        if getattr(residual, "_traced", False):
            return residual
        traced = span("delsolve.residual", residual)
        traced._traced = True
        return traced

    def newton(fn):
        inner = span("delsolve.newton_solve", fn)
        return lambda residual, *a, **kw: inner(residual_span(residual), *a, **kw)

    def jacobian(fn):
        inner = span("delsolve.jacobian", fn)
        return lambda residual, *a, **kw: inner(residual_span(residual), *a, **kw)

    patches.replace(hovi.delsolve, "newton_solve", newton)
    patches.replace(hovi.delsolve, "_fd_jacobian", jacobian)
    for module in (hovi.delsolve, hovi.geometry):
        wrap(module, "step", "delsolve.step")
    wrap(hovi.geometry, "check_symplecticity", "geometry.check_symplecticity")
    wrap(hovi.geometry, "omega_matrix", "geometry.omega_matrix")
    wrap(hovi.geometry, "momentum", "geometry.momentum")

    def warm_stage(fn):
        inner = span("timedep.warm_stage", fn)

        def stage(*args, **kwargs):
            try:
                result = inner(*args, **kwargs)
            except NonConvergenceError as err:
                if err.report is not None:
                    tracer.warm_iterations += err.report.iterations
                raise
            tracer.warm_iterations += result[2].iterations
            return result

        return stage

    patches.replace(hovi.timedep, "solve_masked", warm_stage)
    wrap(hovi.timedep, "solve_bvp", "timedep.full_stage")
    for module in (hovi.timedep, hovi.cli):
        wrap(module, "discrete_energy", "timedep.discrete_energy")

    wrap(np.polynomial.Polynomial, "__call__", "cli.coefficient_eval")
    wrap(hovi.cli, "main", "cli.main")
    # The solver calls the CLI workloads make, so that cli.main's self time
    # is config handling and output writing.
    for attr in ("solve_bvp", "solve_free_times", "solve_ocp", "recover_controls"):
        wrap(hovi.cli, attr, f"cli.{attr}")


# Per-layer metrics: name -> unit.  Order is the report order.
PER_LAYER = {
    "derivatives.partial.calls": "count",
    "derivatives.partial.self_s": "s",
    "derivatives.partial_fd.calls": "count",
    "derivatives.partial_fd.self_s": "s",
    "core.as_window.calls": "count",
    "core.window_value.calls": "count",
    "delsolve.residual.evals": "count",
    "delsolve.residual.self_s": "s",
    "delsolve.jacobian.builds": "count",
    "delsolve.jacobian.s": "s",
    "delsolve.jacobian.residual_evals": "count",
    "delsolve.jacobian.useful_ratio": "ratio",
    "delsolve.jacobian.share": "ratio",
    "delsolve.linalg.self_s": "s",
    "delsolve.linalg.share": "ratio",
    "delsolve.linesearch.trials": "count",
    "delsolve.linesearch.accept_ratio": "ratio",
    "delsolve.step.calls": "count",
    "delsolve.step.s": "s",
    "geometry.check_symplecticity.s": "s",
    "geometry.check_symplecticity.step_calls": "count",
    "geometry.omega_matrix.s": "s",
    "geometry.momentum.s": "s",
    "timedep.warm_stage.s": "s",
    "timedep.warm_stage.iterations": "count",
    "timedep.full_stage.s": "s",
    "timedep.discrete_energy.s": "s",
    "cli.coefficient_eval.calls": "count",
    "cli.coefficient_eval.s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def unit_metrics(tracer: Tracer, wall: float, newton_iters: int, output_bytes: int) -> dict:
    """Per-layer values of one traced unit (all but the overhead ratio)."""
    t = tracer
    builds = t.calls("delsolve.jacobian")
    newton_calls = t.calls("delsolve.newton_solve")
    trials = t.calls("delsolve.residual", "delsolve.newton_solve") - newton_calls
    jac_s = t.total("delsolve.jacobian")
    linalg_s = t.self_time("delsolve.newton_solve")
    return {
        "derivatives.partial.calls": t.calls("derivatives.partial"),
        "derivatives.partial.self_s": t.self_time("derivatives.partial"),
        "derivatives.partial_fd.calls": t.calls("derivatives.partial_fd"),
        "derivatives.partial_fd.self_s": t.self_time("derivatives.partial_fd"),
        "core.as_window.calls": t.calls("core.as_window"),
        "core.window_value.calls": t.calls("core.window_value"),
        "delsolve.residual.evals": t.calls("delsolve.residual"),
        "delsolve.residual.self_s": t.self_time("delsolve.residual"),
        "delsolve.jacobian.builds": builds,
        "delsolve.jacobian.s": jac_s,
        "delsolve.jacobian.residual_evals": t.calls("delsolve.residual", "delsolve.jacobian"),
        "delsolve.jacobian.useful_ratio": _ratio(
            t.calls("delsolve.jacobian", "delsolve.newton_solve"), builds
        ),
        "delsolve.jacobian.share": _ratio(jac_s, wall),
        "delsolve.linalg.self_s": linalg_s,
        "delsolve.linalg.share": _ratio(linalg_s, wall),
        "delsolve.linesearch.trials": trials,
        "delsolve.linesearch.accept_ratio": _ratio(newton_iters, trials),
        "delsolve.step.calls": t.calls("delsolve.step"),
        "delsolve.step.s": t.total("delsolve.step"),
        "geometry.check_symplecticity.s": t.total("geometry.check_symplecticity"),
        "geometry.check_symplecticity.step_calls": t.calls(
            "delsolve.step", "geometry.check_symplecticity"
        ),
        "geometry.omega_matrix.s": t.total("geometry.omega_matrix"),
        "geometry.momentum.s": t.total("geometry.momentum"),
        "timedep.warm_stage.s": t.total("timedep.warm_stage"),
        "timedep.warm_stage.iterations": t.warm_iterations,
        "timedep.full_stage.s": t.total("timedep.full_stage"),
        "timedep.discrete_energy.s": t.total("timedep.discrete_energy"),
        "cli.coefficient_eval.calls": t.calls("cli.coefficient_eval"),
        "cli.coefficient_eval.s": t.total("cli.coefficient_eval"),
        "cli.run.self_s": t.self_time("cli.main"),
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall,
    }


def median_metrics(per_unit: list, untraced_wall: float) -> dict:
    """Median of each per-layer value over the traced units."""
    out = {name: median(u[name] for u in per_unit) for name in per_unit[0]}
    out["trace.overhead_ratio"] = _ratio(out["trace.wall_s"], untraced_wall)
    return out


def span_table(tracer: Tracer) -> list:
    """Aggregated spans as rows, largest total time first."""
    rows = [
        {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
        for (n, p), v in tracer.stats.items()
    ]
    return sorted(rows, key=lambda r: -r["total_s"])
