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
from .delsolve import StepState, step
from .derivatives import partial
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


def _augmented_partial(system, j, window, lam):
    g = partial(system.lagrangian, j, window)
    for alpha, phi in enumerate(system.constraints):
        g = g + lam[alpha] * partial(phi, j, window)
    return g


def theta_minus(system: ConstrainedSystem, point: StepState) -> np.ndarray:
    """Coefficients of the minus boundary one-form in dq_0..dq_{2k-1}.

    Nonzero only on the first k nodes; node i accumulates minus the sum
    of D_j terms over the windows containing it that start at or before
    node 0 ... node i.
    """
    point.checked(system)
    k, n = system.k, system.n
    coeff = np.zeros((2 * k, n))
    for i in range(k):
        acc = np.zeros(n)
        for j in range(1, i + 2):
            s = i - j + 1
            window = point.configs[s : s + k + 1]
            acc += _augmented_partial(system, j, window, point.multipliers[s])
        coeff[i] = -acc
    return coeff.ravel()


def theta_plus(system: ConstrainedSystem, point: StepState) -> np.ndarray:
    """Coefficients of the plus boundary one-form in dq_0..dq_{2k-1}.

    Mirror of theta_minus: nonzero only on the last k nodes.
    """
    point.checked(system)
    k, n = system.k, system.n
    coeff = np.zeros((2 * k, n))
    for i in range(k, 2 * k):
        acc = np.zeros(n)
        for j in range(i - k + 2, k + 2):
            s = i - j + 1
            window = point.configs[s : s + k + 1]
            acc += _augmented_partial(system, j, window, point.multipliers[s])
        coeff[i] = acc
    return coeff.ravel()


def _theta_of_coords(system, z, which):
    k, n, m = system.k, system.n, system.m
    nq = 2 * k * n
    point = StepState(z[:nq].reshape(2 * k, n), z[nq:].reshape(k, m))
    th = theta_minus(system, point) if which == "minus" else theta_plus(system, point)
    return np.concatenate([th, np.zeros(k * m)])


def omega_matrix(
    system: ConstrainedSystem,
    point: StepState,
    which: str = "minus",
    fd_step: float = 1e-6,
) -> np.ndarray:
    """Two-form matrix Omega = -d(theta) by central differencing.

    Entry [a, b] is the coefficient of dz_a wedge dz_b over the
    2k*n + k*m coordinates (configs first, multipliers after);
    antisymmetric by construction.
    """
    point.checked(system)
    z0 = point.flatten()
    dim = z0.size
    dtheta = np.empty((dim, dim))
    for a in range(dim):
        h = fd_step * max(1.0, abs(z0[a]))
        zp = z0.copy()
        zm = z0.copy()
        zp[a] += h
        zm[a] -= h
        dtheta[a] = (
            _theta_of_coords(system, zp, which) - _theta_of_coords(system, zm, which)
        ) / (2.0 * h)
    if not np.all(np.isfinite(dtheta)):
        raise NumericError("non-finite differencing in omega_matrix")
    return dtheta.T - dtheta


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
    system: ConstrainedSystem,
    state: StepState,
    tol: float = 1e-12,
    fd_step: float = 1e-5,
) -> SymplecticityReport:
    """Defect of the pullback of the two-form under the one-step map.

    Unconstrained: || A^T Omega(next) A - Omega(state) ||_F with A the
    finite-difference Jacobian of the step map.  Constrained: the same
    defect restricted to a numerical kernel basis of the constraint
    Jacobian (tangent space of the constraint set).
    """
    k, n, m = system.k, system.n, system.m
    z0 = state.flatten()
    dim = z0.size

    def step_map(z):
        st = StepState(z[: 2 * k * n].reshape(2 * k, n), z[2 * k * n :].reshape(k, m))
        nxt, _ = step(system, st, tol=tol)
        return nxt.flatten()

    jac = np.empty((dim, dim))
    for a in range(dim):
        h = fd_step * max(1.0, abs(z0[a]))
        zp = z0.copy()
        zm = z0.copy()
        zp[a] += h
        zm[a] -= h
        jac[:, a] = (step_map(zp) - step_map(zm)) / (2.0 * h)

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
