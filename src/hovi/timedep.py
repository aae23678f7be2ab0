"""Time-dependent systems on R x Q.

The time coordinate is stored as coordinate 0 of an extended
configuration, so the whole DEL/geometry machinery applies unchanged.
The weighted action multiplies each window value by the time span
t_{i+k} - t_i; stationarity in the time nodes yields the discrete
energy balance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ConstrainedSystem, WindowFunction
from .delsolve import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BoundaryData,
    initial_guess,
    solve_bvp,
    solve_masked,
)
from .errors import DimensionError, NumericError

_ENERGY_STEP = 1e-3


@dataclass(frozen=True)
class TimedPath:
    """Strictly increasing time nodes with their configurations."""

    times: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        if times.ndim != 1 or times.shape[0] != nodes.shape[0]:
            raise DimensionError("times and nodes must have matching lengths")
        if not (np.isfinite(times).all() and np.isfinite(nodes).all()):
            raise DimensionError("timed path has non-finite entries")
        if np.any(np.diff(times) <= 0):
            raise DimensionError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nodes", nodes)

    @property
    def N(self) -> int:
        return self.times.shape[0] - 1

    def extended_nodes(self) -> np.ndarray:
        return np.column_stack([self.times, self.nodes])


@dataclass(frozen=True)
class TimeDependentLagrangian:
    """Window Lagrangian taking k+1 time values and k+1 configurations.

    ``partials``, when given, holds k+1 gradient callables; the j-th maps
    (times, configs) to the length-(n+1) gradient with respect to the
    j-th extended node (time component first).  Free-time solves are
    considerably more accurate with analytic gradients.
    """

    k: int
    n: int
    eval: Callable[[np.ndarray, np.ndarray], float]
    partials: Optional[tuple] = None

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise DimensionError("order and dimension must be positive")
        if self.partials is not None:
            object.__setattr__(self, "partials", tuple(self.partials))
            if len(self.partials) != self.k + 1:
                raise DimensionError(f"expected {self.k + 1} partials")


def extend(system: TimeDependentLagrangian) -> ConstrainedSystem:
    """Lift to an unconstrained system over R x Q with the span-weighted window value.

    Time is coordinate 0 of each extended node.  Window constraints go
    on the lifted Lagrangian directly:
    ``ConstrainedSystem(k, n + 1, extend(system).lagrangian, constraints)``.
    """
    k, n = system.k, system.n

    def weighted(window):
        ts = window[:, 0]
        qs = window[:, 1:]
        return (ts[-1] - ts[0]) * system.eval(ts, qs)

    grads = None
    if system.partials is not None:
        # Product rule: the span t_k - t_0 contributes +-L to the time
        # component of the first and last factors.
        def make(j):
            def grad(window, j=j):
                ts = window[:, 0]
                qs = window[:, 1:]
                g = (ts[-1] - ts[0]) * np.asarray(
                    system.partials[j - 1](ts, qs), dtype=float
                )
                if j == k + 1:
                    g = g.copy()
                    g[0] += system.eval(ts, qs)
                elif j == 1:
                    g = g.copy()
                    g[0] -= system.eval(ts, qs)
                return g

            return grad

        grads = tuple(make(j) for j in range(1, k + 2))

    return ConstrainedSystem(k, n + 1, WindowFunction(k, n + 1, weighted, grads))


def discrete_energy(system: TimeDependentLagrangian, times, nodes, i: int) -> float:
    """Discrete energy conjugate to the step h_i = t_{i+1} - t_i.

    Minus the derivative of the weighted window sums with respect to
    h_i, accumulated over the k action windows containing that step.
    A sixth-order stencil with the step _ENERGY_STEP * h_i keeps the
    energy accurate well below the solver tolerances.
    """
    k = system.k
    path = TimedPath(times, nodes)
    times, nodes, N = path.times, path.nodes, path.N
    if not k - 1 <= i <= N - k:
        raise DimensionError(f"energy node {i} outside range {k - 1}..{N - k}")
    energy = 0.0
    for s in range(i - k + 1, i + 1):
        ts = times[s : s + k + 1]
        qs = nodes[s : s + k + 1]
        value = system.eval(ts, qs)
        span = ts[-1] - ts[0]
        eps = _ENERGY_STEP * (times[i + 1] - times[i])

        def shifted(delta, ts=ts, qs=qs, s=s):
            tt = ts.copy()
            tt[i + 1 - s :] += delta
            return system.eval(tt, qs)

        dvalue = (
            shifted(3.0 * eps)
            - 9.0 * shifted(2.0 * eps)
            + 45.0 * shifted(eps)
            - 45.0 * shifted(-eps)
            + 9.0 * shifted(-2.0 * eps)
            - shifted(-3.0 * eps)
        ) / (60.0 * eps)
        energy -= dvalue * span + value
    if not np.isfinite(energy):
        raise NumericError("non-finite discrete energy")
    return energy


def solve_free_times(
    system: TimeDependentLagrangian,
    head: TimedPath,
    tail: TimedPath,
    N: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Boundary-value solve with the interior times among the unknowns.

    The free-time problem has a narrow Newton basin, so the solve is
    staged: first the spatial equations alone along uniformly spread
    interior times, then the full problem from that warm start.
    """
    extended = extend(system)
    boundary = BoundaryData(head.extended_nodes(), tail.extended_nodes(), N).checked(
        system.k, system.n + 1
    )
    nodes0, q_mask = initial_guess(boundary)
    q_mask[:, 0] = False
    warm, _, _ = solve_masked(extended, nodes0, q_mask, max(tol, 1e-9), max_iter)
    path, _, report = solve_bvp(
        extended, boundary, guess_path=warm, tol=tol, max_iter=max_iter
    )
    return TimedPath(path.nodes[:, 0], path.nodes[:, 1:]), report


def solve_fixed_step(
    system: TimeDependentLagrangian,
    h: float,
    t0: float,
    head,
    tail,
    N: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Boundary-value solve along the prescribed times t_i = t0 + i*h.

    The time column is fixed data, so only the spatial stationarity
    equations are solved and the energy balance of the time nodes is
    not imposed.
    """
    if not 0.0 < h < np.inf:
        raise DimensionError(f"step size must be positive and finite, got {h}")
    boundary = BoundaryData(head, tail, N).checked(system.k, system.n)
    nodes0, q_mask = initial_guess(boundary)
    nodes0 = TimedPath(t0 + h * np.arange(N + 1), nodes0).extended_nodes()
    q_mask = np.column_stack([np.zeros(N + 1, dtype=bool), q_mask])
    path, _, report = solve_masked(extend(system), nodes0, q_mask, tol, max_iter)
    return TimedPath(path.nodes[:, 0], path.nodes[:, 1:]), report
