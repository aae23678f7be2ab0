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
    _window_sweep,
    constraint_gradients,
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


def _theta_map(system, side):
    """theta_plus or theta_minus, as side names, as a function theta(z).

    z is the coordinates of a state (StepState.flatten order); theta(z)
    holds the one-form's coefficients over all 2k*n + k*m of them, zero on
    the multipliers.  One memoized window sweep serves every call.
    """
    if side not in ("plus", "minus"):
        raise DimensionError(f"expected side 'plus' or 'minus', got {side!r}")
    k, n, m = system.k, system.n, system.m
    lo = k if side == "plus" else 0
    sweep = _window_sweep(system, 2 * k, lo, lo + k)

    def theta(z):
        coeff = np.zeros(z.size)
        grads = sweep(z[: 2 * k * n].reshape(2 * k, n), z[2 * k * n :].reshape(k, m))[0]
        coeff[lo * n : (lo + k) * n] = grads.ravel()
        return coeff if side == "plus" else -coeff

    return theta


def theta_minus(system: ConstrainedSystem, point: StepState) -> np.ndarray:
    """Coefficients of the minus boundary one-form in dq_0..dq_{2k-1}.

    Minus the node gradient of the augmented action of the state's
    windows on the first k nodes, zero on the last k.
    """
    z = point.checked(system).flatten()
    return _theta_map(system, "minus")(z)[: 2 * system.k * system.n]


def theta_plus(system: ConstrainedSystem, point: StepState) -> np.ndarray:
    """Coefficients of the plus boundary one-form in dq_0..dq_{2k-1}.

    The node gradient of the augmented action of the state's windows on
    the last k nodes, zero on the first k.  theta_plus of the state at
    node p-k minus theta_minus of the state at node p gives, at node p,
    the DEL residual there.
    """
    z = point.checked(system).flatten()
    return _theta_map(system, "plus")(z)[: 2 * system.k * system.n]


def omega_matrix(
    system: ConstrainedSystem, point: StepState, which: str = "minus"
) -> np.ndarray:
    """Two-form matrix Omega = -d(theta) by central differencing (step FD_STEP).

    Entry [a, b] is the coefficient of dz_a wedge dz_b over the
    2k*n + k*m coordinates (configs first, multipliers after);
    antisymmetric by construction.
    """
    z = point.checked(system).flatten()
    jac = central_difference(_theta_map(system, which), z, FD_STEP)
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

    The new node and multiplier x solve G(z, x) = 0, the step equations at
    the state coordinates z, so dx/dz = -G_x^{-1} G_z, where [G_z G_x] is
    one central difference (step FD_STEP) over the stacked (z, x) at the
    solved point; a G_x that fails _regular_svd raises RegularityError.
    The other rows shift the state by one node, in flatten order.
    """
    n, m = system.n, system.m
    z = state.flatten()
    dim, nq = z.size, 2 * system.k * n
    x = np.concatenate([next_state.configs[-1], next_state.multipliers[-1]])
    equations = _step_equations(system, state)[0]
    g = central_difference(lambda w: equations(w[:dim], w[dim:]), np.r_[z, x], FD_STEP)
    _regular_svd(g[:, dim:], "step equations at the solved point")
    dx_dz = -np.linalg.solve(g[:, dim:], g[:, :dim])
    jac = np.zeros((dim, dim))
    jac[np.r_[: nq - n, nq : dim - m], np.r_[n:nq, nq + m : dim]] = 1.0
    jac[np.r_[nq - n : nq, dim - m : dim]] = dx_dz
    return jac


def check_symplecticity(
    system: ConstrainedSystem, state: StepState, tol: float = 1e-12
) -> SymplecticityReport:
    """Defect of the pullback of the two-form under the one-step map.

    Runs one step (to tol) and takes the map's Jacobian A from the step
    equations at the solved point (_step_map_jacobian).  The defect is
    || B^T (A^T Omega(next) A - Omega(state)) B ||_F with B a numerical
    kernel basis of the constraint Jacobian (tangent space of the
    constraint set); without constraints B is the identity and the
    defect is taken on the full space.
    """
    next_state, _ = step(system, state, tol=tol)
    jac = _step_map_jacobian(system, state, next_state)
    omega_here = omega_matrix(system, state)
    omega_next = omega_matrix(system, next_state)
    _, sv, vt = np.linalg.svd(_constraint_jacobian(system, state))
    rank = int(np.sum(sv > max(1e-10, sv[0] * 1e-12))) if sv.size else 0
    basis = vt[rank:].T
    av = jac @ basis
    defect = av.T @ omega_next @ av - basis.T @ omega_here @ basis
    return SymplecticityReport(float(np.linalg.norm(defect)), restricted=system.m > 0)


def momentum(
    system: ConstrainedSystem,
    action: GroupAction,
    point: StepState,
    side: str = "plus",
) -> np.ndarray:
    """Pairing of the boundary one-form with the lifted generators."""
    k, n = system.k, system.n
    z = point.checked(system).flatten()
    coeff = _theta_map(system, side)(z)[: 2 * k * n].reshape(2 * k, n)
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
