"""Concrete systems: sphere-constrained splines, the elastic beam, and
the underactuated optimal-control reduction."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ConstrainedSystem, WindowFunction
from .delsolve import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BoundaryData,
    StepState,
    initial_guess,
    solve_masked,
)
from .derivatives import partial
from .errors import DimensionError, NumericError
from .timedep import TimeDependentLagrangian


def sphere_spline_system(r: float, h: float) -> ConstrainedSystem:
    """Discrete cubic splines on the radius-r sphere in R^3.

    Second-difference Lagrangian with analytic partials; the holonomic
    sphere constraint reads the first node of each window, so the
    multiplier of window i couples to node q_i in the combined equation.
    """
    if r <= 0 or h <= 0:
        raise DimensionError("radius and step must be positive")

    def lag(w):
        d = w[2] - 2.0 * w[1] + w[0]
        return float(d @ d) / (2.0 * h ** 3)

    def d1(w):
        return (w[2] - 2.0 * w[1] + w[0]) / h ** 3

    def d2(w):
        return -2.0 * (w[2] - 2.0 * w[1] + w[0]) / h ** 3

    lagrangian = WindowFunction(2, 3, lag, (d1, d2, d1))

    def phi(w):
        return float(w[0] @ w[0]) - r ** 2

    zero = lambda w: np.zeros(3)
    constraint = WindowFunction(2, 3, phi, (lambda w: 2.0 * w[0], zero, zero))
    return ConstrainedSystem(2, 3, lagrangian, (constraint,))


def sphere_multiplier(window, r: float, h: float) -> float:
    """Closed-form multiplier from the five nodes around the solved node.

    ``window`` holds q_{p-2}..q_{p+2}; the value is the multiplier of
    the sphere constraint paired with q_p on a solution.
    """
    w = np.asarray(window, dtype=float)
    if w.shape != (5, 3):
        raise DimensionError(f"expected a (5, 3) node block, got {w.shape}")
    qm2, qm1, q, qp1, qp2 = w
    bracket = (
        float(qp2 @ q) - 4.0 * float(qp1 @ q) + float(qm2 @ q) - 4.0 * float(qm1 @ q)
        + 6.0 * r ** 2
    )
    return -bracket / (2.0 * r ** 2 * h ** 3)


def great_circle_state(r: float, h: float) -> StepState:
    """Sphere-spline step state on a uniformly rotating great circle.

    Nodes q_i = r (cos 0.05 i, sin 0.05 i, 0) for i = 0..3, with the
    closed-form multipliers of the solution through them.
    """
    theta = 0.05

    def q(i):
        return r * np.array([np.cos(i * theta), np.sin(i * theta), 0.0])

    nodes = np.array([q(i) for i in range(4)])
    lams = np.array(
        [
            [sphere_multiplier(np.array([q(j) for j in range(p - 2, p + 3)]), r, h)]
            for p in (2, 3)
        ]
    )
    return StepState(nodes, lams)


def beam_system(
    mu: Callable[[float], float],
    rho: Callable[[float], float],
    dmu: Optional[Callable[[float], float]] = None,
    drho: Optional[Callable[[float], float]] = None,
) -> TimeDependentLagrangian:
    """Deformed elastic beam: bending stiffness mu and load density rho.

    Divided-difference acceleration with the midpoint of the three time
    nodes feeding the coefficient functions.  When the coefficient
    derivatives are supplied the system carries analytic gradients,
    which free-time solves need for deep convergence.
    """

    def pieces(ts, qs):
        tbar = (ts[0] + ts[1] + ts[2]) / 3.0
        mu_val = float(mu(tbar))
        if mu_val == 0.0:
            raise NumericError(f"stiffness vanished at t = {tbar}")
        dt1 = ts[1] - ts[0]
        dt2 = ts[2] - ts[1]
        acc = (qs[2, 0] - qs[1, 0]) / dt2 ** 2 - (qs[1, 0] - qs[0, 0]) / (dt1 * dt2)
        return tbar, mu_val, dt1, dt2, acc

    def ev(ts, qs):
        tbar, mu_val, _, _, acc = pieces(ts, qs)
        qbar = (qs[0, 0] + qs[1, 0] + qs[2, 0]) / 3.0
        return 0.5 * mu_val * acc ** 2 + float(rho(tbar)) * qbar

    partials = None
    if dmu is not None and drho is not None:
        def make(j):
            def grad(ts, qs, j=j):
                tbar, mu_val, dt1, dt2, acc = pieces(ts, qs)
                a = qs[2, 0] - qs[1, 0]
                b = qs[1, 0] - qs[0, 0]
                qbar = (qs[0, 0] + qs[1, 0] + qs[2, 0]) / 3.0
                if j == 1:
                    dacc_dt = -b / (dt1 ** 2 * dt2)
                    dacc_dq = 1.0 / (dt1 * dt2)
                elif j == 2:
                    dacc_dt = 2.0 * a / dt2 ** 3 + b / (dt1 ** 2 * dt2) - b / (dt1 * dt2 ** 2)
                    dacc_dq = -1.0 / dt2 ** 2 - 1.0 / (dt1 * dt2)
                else:
                    dacc_dt = -2.0 * a / dt2 ** 3 + b / (dt1 * dt2 ** 2)
                    dacc_dq = 1.0 / dt2 ** 2
                dt_coeff = (
                    0.5 * float(dmu(tbar)) * acc ** 2 / 3.0
                    + mu_val * acc * dacc_dt
                    + float(drho(tbar)) * qbar / 3.0
                )
                dq_coeff = mu_val * acc * dacc_dq + float(rho(tbar)) / 3.0
                return np.array([dt_coeff, dq_coeff])

            return grad

        partials = tuple(make(j) for j in (1, 2, 3))

    return TimeDependentLagrangian(2, 1, ev, partials)


@dataclass(frozen=True)
class UnderactuatedSpec:
    """Controlled k=1 Lagrangian on R x Q with r actuated coordinates.

    ``lagrangian`` is a two-node window function over the extended
    configuration (time first); ``cost`` maps a two-node extended window
    and a control vector of length r to a running cost.  The first r
    spatial coordinates are actuated.
    """

    n: int
    r: int
    lagrangian: WindowFunction
    cost: Callable[[np.ndarray, np.ndarray], float]

    def __post_init__(self):
        if not 1 <= self.r < self.n:
            raise DimensionError(f"need 1 <= r < n, got r={self.r}, n={self.n}")
        if self.lagrangian.k != 1 or self.lagrangian.n != self.n + 1:
            raise DimensionError(
                "underactuated Lagrangian must be a k=1 window function "
                "over the extended configuration"
            )


def coupled_quadratic_lagrangian(n: int, stiffness) -> WindowFunction:
    """k=1 controlled Lagrangian on R x Q with analytic partials.

    L = |v|^2/2 - q_bar^T K q_bar / 2 on a two-node extended window (time
    is coordinate 0), with K the symmetric part of the n x n stiffness.
    """
    K = np.asarray(stiffness, dtype=float)
    K = 0.5 * (K + K.T)

    def kinematics(w):
        """Time step, velocity and midpoint of the window."""
        dt = w[1, 0] - w[0, 0]
        return dt, (w[1, 1:] - w[0, 1:]) / dt, 0.5 * (w[0, 1:] + w[1, 1:])

    def lag(w):
        _, v, qb = kinematics(w)
        return 0.5 * float(v @ v) - 0.5 * float(qb @ K @ qb)

    def d1(w):
        dt, v, qb = kinematics(w)
        g = np.empty(n + 1)
        g[0] = float(v @ v) / dt
        g[1:] = -v / dt - 0.5 * (K @ qb)
        return g

    def d2(w):
        dt, v, qb = kinematics(w)
        g = np.empty(n + 1)
        g[0] = -float(v @ v) / dt
        g[1:] = v / dt - 0.5 * (K @ qb)
        return g

    return WindowFunction(1, n + 1, lag, (d1, d2))


def _forced_terms(spec: UnderactuatedSpec, window3: np.ndarray) -> np.ndarray:
    """Left-hand sides of the controlled equations on a 3-node window."""
    pair01 = window3[0:2]
    pair12 = window3[1:3]
    dt1 = window3[1, 0] - window3[0, 0]
    dt2 = window3[2, 0] - window3[1, 0]
    d4 = partial(spec.lagrangian, 2, pair01)[1:]
    d2 = partial(spec.lagrangian, 1, pair12)[1:]
    return dt1 * d4 + dt2 * d2


def underactuated_to_constrained(spec: UnderactuatedSpec) -> ConstrainedSystem:
    """Second-order constrained reformulation of the optimal control problem.

    The window Lagrangian evaluates the cost with the actuated controlled
    expressions substituted for the controls; the unactuated expressions
    become the constraints.
    """
    r = spec.r
    dim = spec.n + 1

    def lag(w):
        u = _forced_terms(spec, w)[:r]
        return float(spec.cost(w[0:2], u))

    lagrangian = WindowFunction(2, dim, lag)

    def make_constraint(alpha):
        def ev(w, alpha=alpha):
            return float(_forced_terms(spec, w)[r + alpha])

        return WindowFunction(2, dim, ev)

    constraints = tuple(make_constraint(a) for a in range(spec.n - r))
    return ConstrainedSystem(2, dim, lagrangian, constraints)


def recover_controls(spec: UnderactuatedSpec, times, nodes) -> np.ndarray:
    """Controls at the interior nodes of a timed path.

    Row i-1 holds u_i, the actuated controlled expression at node i,
    for i = 1..N-1.
    """
    times = np.asarray(times, dtype=float)
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if times.shape[0] < 3:
        raise DimensionError("need at least three nodes to recover controls")
    if nodes.shape != (times.shape[0], spec.n):
        raise DimensionError(f"nodes have shape {nodes.shape}")
    extended = np.column_stack([times, nodes])
    out = np.empty((times.shape[0] - 2, spec.r))
    for i in range(1, times.shape[0] - 1):
        out[i - 1] = _forced_terms(spec, extended[i - 1 : i + 2])[: spec.r]
    return out


def solve_ocp(
    spec: UnderactuatedSpec,
    times,
    head,
    tail,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Solve the constrained reformulation along prescribed times.

    ``head`` and ``tail`` each hold two boundary configurations; the
    spatial interiors and all multipliers are the unknowns.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise DimensionError("times must be strictly increasing")
    N = times.shape[0] - 1
    nodes0, q_mask = initial_guess(BoundaryData(head, tail, N).checked(2, spec.n))
    nodes0 = np.column_stack([times, nodes0])
    q_mask = np.column_stack([np.zeros(N + 1, dtype=bool), q_mask])
    return solve_masked(underactuated_to_constrained(spec), nodes0, q_mask, tol, max_iter)
