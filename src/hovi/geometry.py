"""Discrete Poincare-Cartan forms, symplecticity and momentum diagnostics.

The boundary one-forms of the augmented discrete action live on a
2k-node window together with its k multiplier vectors.  The two-form is
always obtained numerically as minus the exterior derivative of the
minus one-form; symplecticity of the one-step map is checked against a
finite-difference Jacobian of the map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ConstrainedSystem
from .delsolve import StepState, node_gradient, step
from .derivatives import FD_STEP, central_difference, partial
from .errors import DimensionError, NumericError

# Relative step of the step-map Jacobian.  Each map value is a Newton
# solve, accurate only to its tolerance, so the step is larger than FD_STEP.
_STEP_MAP_STEP = 1e-5


@dataclass(frozen=True)
class GroupAction:
    """Basis of infinitesimal generators q -> xi_a(q) of a Lie group action."""

    generators: tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def dim(self) -> int:
        return len(self.generators)


def rotation_action() -> GroupAction:
    """Infinitesimal rotations of R^3 about the coordinate axes."""
    def make(axis):
        e = np.zeros(3)
        e[axis] = 1.0
        return lambda q: np.cross(e, q)

    return GroupAction(tuple(make(a) for a in range(3)))


def translation_action(n: int) -> GroupAction:
    """Infinitesimal coordinate translations of R^n."""
    def make(axis):
        e = np.zeros(n)
        e[axis] = 1.0
        return lambda q: e

    return GroupAction(tuple(make(a) for a in range(n)))


def _node_gradients(system, point, rows):
    """Node gradients of the state's block at the given rows, zero elsewhere."""
    point.checked(system)
    coeff = np.zeros((2 * system.k, system.n))
    for i in rows:
        coeff[i] = node_gradient(system, point.configs, point.multipliers, i)
    return coeff.ravel()


def theta_minus(system: ConstrainedSystem, point: StepState) -> np.ndarray:
    """Coefficients of the minus boundary one-form in dq_0..dq_{2k-1}.

    Minus the node gradient of the augmented action of the state's
    windows on the first k nodes, zero on the last k.
    """
    return -_node_gradients(system, point, range(system.k))


def theta_plus(system: ConstrainedSystem, point: StepState) -> np.ndarray:
    """Coefficients of the plus boundary one-form in dq_0..dq_{2k-1}.

    The node gradient of the augmented action of the state's windows on
    the last k nodes, zero on the first k.  theta_plus of the state at
    node p-k minus theta_minus of the state at node p gives, at node p,
    the DEL residual there.
    """
    return _node_gradients(system, point, range(system.k, 2 * system.k))


def _theta_of_coords(system, z, which):
    k, n, m = system.k, system.n, system.m
    point = StepState.unflatten(z, k, n, m)
    th = theta_minus(system, point) if which == "minus" else theta_plus(system, point)
    return np.concatenate([th, np.zeros(k * m)])


def omega_matrix(
    system: ConstrainedSystem, point: StepState, which: str = "minus"
) -> np.ndarray:
    """Two-form matrix Omega = -d(theta) by central differencing (step FD_STEP).

    Entry [a, b] is the coefficient of dz_a wedge dz_b over the
    2k*n + k*m coordinates (configs first, multipliers after);
    antisymmetric by construction.
    """
    point.checked(system)
    jac = central_difference(
        lambda z: _theta_of_coords(system, z, which), point.flatten(), FD_STEP
    )
    if not np.all(np.isfinite(jac)):
        raise NumericError("non-finite differencing in omega_matrix")
    return jac - jac.T


@dataclass(frozen=True)
class SymplecticityReport:
    defect_norm: float
    restricted: bool


def _constraint_jacobian(system, point):
    """Jacobian of the k window constraints over the extended coordinates."""
    k, n, m = system.k, system.n, system.m
    rows = []
    for s in range(k):
        window = point.configs[s : s + k + 1]
        for phi in system.constraints:
            row = np.zeros(2 * k * n + k * m)
            for j in range(1, k + 2):
                node = s + j - 1
                row[node * n : (node + 1) * n] = partial(phi, j, window)
            rows.append(row)
    return np.array(rows)


def check_symplecticity(
    system: ConstrainedSystem, state: StepState, tol: float = 1e-12
) -> SymplecticityReport:
    """Defect of the pullback of the two-form under the one-step map.

    Unconstrained: || A^T Omega(next) A - Omega(state) ||_F with A the
    central-difference Jacobian of the step map (step _STEP_MAP_STEP).
    Constrained: the same defect restricted to a numerical kernel basis
    of the constraint Jacobian (tangent space of the constraint set).
    """
    k, n, m = system.k, system.n, system.m

    def step_map(z):
        nxt, _ = step(system, StepState.unflatten(z, k, n, m), tol=tol)
        return nxt.flatten()

    jac = central_difference(step_map, state.flatten(), _STEP_MAP_STEP)
    next_state, _ = step(system, state, tol=tol)
    omega_here = omega_matrix(system, state)
    omega_next = omega_matrix(system, next_state)

    if m == 0:
        defect = jac.T @ omega_next @ jac - omega_here
        return SymplecticityReport(float(np.linalg.norm(defect)), restricted=False)

    cjac = _constraint_jacobian(system, state)
    _, sv, vt = np.linalg.svd(cjac)
    rank = int(np.sum(sv > max(1e-10, sv[0] * 1e-12))) if sv.size else 0
    basis = vt[rank:].T
    av = jac @ basis
    defect = av.T @ omega_next @ av - basis.T @ omega_here @ basis
    return SymplecticityReport(float(np.linalg.norm(defect)), restricted=True)


def legendre_minus(system: ConstrainedSystem, q0, q1):
    """Discrete Legendre transform at the left endpoint (k = 1 only)."""
    if system.k != 1:
        raise DimensionError("discrete Legendre transforms require k = 1")
    window = np.vstack([np.atleast_1d(q0), np.atleast_1d(q1)])
    p0 = -partial(system.lagrangian, 1, window)
    return np.atleast_1d(np.asarray(q0, dtype=float)), p0


def legendre_plus(system: ConstrainedSystem, q0, q1):
    """Discrete Legendre transform at the right endpoint (k = 1 only)."""
    if system.k != 1:
        raise DimensionError("discrete Legendre transforms require k = 1")
    window = np.vstack([np.atleast_1d(q0), np.atleast_1d(q1)])
    p1 = partial(system.lagrangian, 2, window)
    return np.atleast_1d(np.asarray(q1, dtype=float)), p1


def momentum(
    system: ConstrainedSystem,
    action: GroupAction,
    point: StepState,
    side: str = "plus",
) -> np.ndarray:
    """Pairing of the boundary one-form with the lifted generators."""
    point.checked(system)
    if side not in ("plus", "minus"):
        raise DimensionError(f"side must be 'plus' or 'minus', got {side!r}")
    k, n = system.k, system.n
    th = (theta_plus if side == "plus" else theta_minus)(system, point)
    coeff = th.reshape(2 * k, n)
    out = np.empty(action.dim)
    for a, gen in enumerate(action.generators):
        val = 0.0
        for i in range(2 * k):
            xi = np.atleast_1d(np.asarray(gen(point.configs[i]), dtype=float))
            if xi.shape != (n,):
                raise DimensionError(f"generator {a} returned shape {xi.shape}")
            val += float(coeff[i] @ xi)
        out[a] = val
    return out


def check_momentum_conservation(
    system: ConstrainedSystem,
    action: GroupAction,
    trajectory: Sequence[StepState],
) -> float:
    """Max consecutive change of the plus momentum map along a trajectory."""
    values = [momentum(system, action, st, side="plus") for st in trajectory]
    drift = 0.0
    for prev, cur in zip(values, values[1:]):
        drift = max(drift, float(np.max(np.abs(cur - prev))))
    return drift
