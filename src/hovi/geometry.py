"""Discrete Poincare-Cartan forms, symplecticity and momentum diagnostics.

The boundary one-forms of the augmented discrete action live on a
2k-node window together with its k multiplier vectors.  The two-form is
always obtained numerically as minus the exterior derivative of the
minus one-form; symplecticity of the one-step map is checked against
its Jacobian from the step equations (implicit function theorem).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ConstrainedSystem
from .delsolve import (
    StepState,
    _regular_svd,
    _step_equations,
    constraint_gradients,
    node_gradient,
    step,
)
# partial is not called here; perfbench/tracing.py wraps it under this name.
from .derivatives import FD_STEP, central_difference, partial
from .errors import DimensionError, NumericError


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
    """Infinitesimal rotations of R^3 about the coordinate axes, q -> e_a x q."""
    return GroupAction(
        (
            lambda q: np.array([0.0, -q[2], q[1]]),
            lambda q: np.array([q[2], 0.0, -q[0]]),
            lambda q: np.array([-q[1], q[0], 0.0]),
        )
    )


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
    if not np.isfinite(jac).all():
        raise NumericError("non-finite differencing in omega_matrix")
    return jac - jac.T


@dataclass(frozen=True)
class SymplecticityReport:
    defect_norm: float
    restricted: bool


def _constraint_jacobian(system, point):
    """Jacobian of the k window constraints over the extended coordinates."""
    k, n, m = system.k, system.n, system.m
    dim = 2 * k * n + k * m
    jac = np.zeros((k, m, dim))
    for s in range(k):
        grads = constraint_gradients(system, point.configs[s : s + k + 1])
        jac[s, :, s * n : (s + k + 1) * n] = grads.reshape(m, (k + 1) * n)
    return jac.reshape(k * m, dim)


def _step_map_jacobian(system, state, next_state):
    """Jacobian of the one-step map at state, next_state being its image.

    The new node and multiplier x solve G(x; z) = 0, the step equations
    of the state with coordinates z, so dx/dz = -G_x^{-1} G_z with both
    partials by central differencing (step FD_STEP) at the solved point;
    a G_x that fails _regular_svd raises RegularityError.  The other rows
    shift the state by one node, in flatten order.
    """
    k, n, m = system.k, system.n, system.m
    z = state.flatten()
    x = np.concatenate([next_state.configs[-1], next_state.multipliers[-1]])

    def equations(w):  # G(.; w), the step equations of the state with coordinates w
        return _step_equations(system, StepState.unflatten(w, k, n, m))[0]

    g_x = central_difference(equations(z), x, FD_STEP)
    g_z = central_difference(lambda w: equations(w)(x), z, FD_STEP)
    _regular_svd(g_x, "step equations at the solved point")
    dx_dz = -np.linalg.solve(g_x, g_z)
    nq, dim = 2 * k * n, z.size
    jac = np.zeros((dim, dim))
    jac[np.r_[: nq - n, nq : dim - m], np.r_[n:nq, nq + m : dim]] = 1.0
    jac[np.r_[nq - n : nq, dim - m : dim]] = dx_dz
    return jac


def check_symplecticity(
    system: ConstrainedSystem, state: StepState, tol: float = 1e-12
) -> SymplecticityReport:
    """Defect of the pullback of the two-form under the one-step map.

    Runs one step (to tol) and takes the map's Jacobian A from the step
    equations at the solved point (_step_map_jacobian).  Unconstrained:
    || A^T Omega(next) A - Omega(state) ||_F.  Constrained: the same
    defect restricted to a numerical kernel basis of the constraint
    Jacobian (tangent space of the constraint set).
    """
    next_state, _ = step(system, state, tol=tol)
    jac = _step_map_jacobian(system, state, next_state)
    omega_here = omega_matrix(system, state)
    omega_next = omega_matrix(system, next_state)

    if system.m == 0:
        defect = jac.T @ omega_next @ jac - omega_here
        return SymplecticityReport(float(np.linalg.norm(defect)), restricted=False)

    cjac = _constraint_jacobian(system, state)
    _, sv, vt = np.linalg.svd(cjac)
    rank = int(np.sum(sv > max(1e-10, sv[0] * 1e-12))) if sv.size else 0
    basis = vt[rank:].T
    av = jac @ basis
    defect = av.T @ omega_next @ av - basis.T @ omega_here @ basis
    return SymplecticityReport(float(np.linalg.norm(defect)), restricted=True)


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
    values = np.array([momentum(system, action, st, side="plus") for st in trajectory])
    return float(np.max(np.abs(np.diff(values, axis=0)), initial=0.0))
