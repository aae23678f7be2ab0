"""Time-dependent systems on R x Q.

A time-dependent Lagrangian is a ``WindowFunction`` over the extended
window: each node is (t, q), time in column 0, so partials, gradient
checks and the whole DEL/geometry machinery apply unchanged.  The
weighted action multiplies each window value by the time span
t_{i+k} - t_i; stationarity in the time nodes yields the discrete
energy balance.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if nodes.ndim != 2:
            raise DimensionError(f"timed path nodes must be 1-D or 2-D, got shape {nodes.shape}")
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


def extend(lagrangian: WindowFunction) -> ConstrainedSystem:
    """Lift to an unconstrained system over R x Q with the span-weighted window value.

    ``lagrangian`` is a window function over the extended window, time in
    column 0, so Q has n - 1 >= 1 coordinates.  The lifted value is
    (t_k - t_0) L.  Window constraints go on the lifted Lagrangian
    directly: ``ConstrainedSystem(k, n, extend(lagrangian).lagrangian,
    constraints)``.
    """
    k, n = lagrangian.k, lagrangian.n
    if n < 2:
        raise DimensionError(f"a Lagrangian on R x Q needs n >= 2, got n={n}")

    def weighted(w):
        return (w[-1, 0] - w[0, 0]) * lagrangian.eval(w)

    grads = None
    if lagrangian.partials is not None:
        # Product rule: the span t_k - t_0 contributes +-L to the time
        # component of the first and last factors.
        def make(j):
            def grad(w, j=j):
                g = (w[-1, 0] - w[0, 0]) * np.asarray(
                    lagrangian.partials[j - 1](w), dtype=float
                )
                if j == k + 1:
                    g[0] += lagrangian.eval(w)
                elif j == 1:
                    g[0] -= lagrangian.eval(w)
                return g

            return grad

        grads = tuple(make(j) for j in range(1, k + 2))

    return ConstrainedSystem(k, n, WindowFunction(k, n, weighted, grads))


def discrete_energy(lagrangian: WindowFunction, times, nodes, i: int) -> float:
    """Discrete energy conjugate to the step h_i = t_{i+1} - t_i.

    ``lagrangian`` is a window function over the extended window, as for
    ``extend``, and ``nodes`` holds its n - 1 spatial columns.  The energy
    is minus the derivative of the weighted window sums with respect to
    h_i, accumulated over the k action windows containing that step.
    A sixth-order stencil with the step _ENERGY_STEP * h_i keeps the
    energy accurate well below the solver tolerances.
    """
    k = lagrangian.k
    path = TimedPath(times, nodes)
    if path.nodes.shape[1] != lagrangian.n - 1:
        raise DimensionError(
            f"nodes have {path.nodes.shape[1]} columns, expected {lagrangian.n - 1}"
        )
    ext, N = path.extended_nodes(), path.N
    if not k - 1 <= i <= N - k:
        raise DimensionError(f"energy node {i} outside range {k - 1}..{N - k}")
    energy = 0.0
    for s in range(i - k + 1, i + 1):
        w = ext[s : s + k + 1]
        value = lagrangian.eval(w)
        span = w[-1, 0] - w[0, 0]
        eps = _ENERGY_STEP * (ext[i + 1, 0] - ext[i, 0])

        def shifted(delta, w=w, s=s):
            ww = w.copy()
            ww[i + 1 - s :, 0] += delta
            return lagrangian.eval(ww)

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
    lagrangian: WindowFunction,
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
    extended = extend(lagrangian)
    boundary = BoundaryData(head.extended_nodes(), tail.extended_nodes(), N).checked(
        lagrangian.k, lagrangian.n
    )
    nodes0, q_mask = initial_guess(boundary)
    q_mask[:, 0] = False
    warm, _, _ = solve_masked(extended, nodes0, q_mask, max(tol, 1e-9), max_iter)
    path, _, report = solve_bvp(
        extended, boundary, guess_path=warm, tol=tol, max_iter=max_iter
    )
    return TimedPath(path.nodes[:, 0], path.nodes[:, 1:]), report


def solve_fixed_step(
    lagrangian: WindowFunction,
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
    boundary = BoundaryData(head, tail, N).checked(lagrangian.k, lagrangian.n - 1)
    nodes0, q_mask = initial_guess(boundary)
    nodes0 = TimedPath(t0 + h * np.arange(N + 1), nodes0).extended_nodes()
    q_mask = np.column_stack([np.zeros(N + 1, dtype=bool), q_mask])
    path, _, report = solve_masked(extend(lagrangian), nodes0, q_mask, tol, max_iter)
    return TimedPath(path.nodes[:, 0], path.nodes[:, 1:]), report
