"""Output checks that do not trust the solver's own report.

Each check reads what the program produced (the trajectory CSV through
``read_trajectory_csv``, or the states ``step`` returned), rebuilds the
system from the config, and recomputes the DEL and constraint residuals
with the public ``del_residual`` and ``constraint_residual``.  Every check
returns a list of problems; an empty list means the output is correct.

The systems are rebuilt here rather than taken from the CLI, so a defect
in the CLI's system construction shows as a failed check.  Beam
coefficients are evaluated with ``polyval`` rather than ``Polynomial`` so
that the traced run's coefficient counter sees only the CLI's calls.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from hovi import timedep
from hovi.applications import (
    UnderactuatedSpec,
    beam_system,
    sphere_spline_system,
    underactuated_to_constrained,
)
from hovi.cli import polynomial_system, read_trajectory_csv
from hovi.core import DiscretePath, MultiplierSequence, WindowFunction
from hovi.delsolve import DEFAULT_TOL, constraint_residual, del_residual

# The solver stops at max |residual| <= tol; recomputing the residual from
# the written trajectory may differ by rounding only.
DEL_TOL_FACTOR = 10.0
SPHERE_NORM_DEFECT = 1e-10
ENERGY_TOL_FACTOR = 10.0
OCP_CONSTRAINT = 1e-8
# Thresholds of `hovi check` and the acceptance tests.
SYMPLECTIC_DEFECT = 1e-4
MOMENTUM_DRIFT = 1e-8


def _limit(problems, label, value, bound):
    if not value <= bound:
        problems.append(f"{label} {value:.3e} exceeds {bound:.1e}")


def _boundary(problems, nodes, head, tail):
    k = len(head)
    if not (np.array_equal(nodes[:k], head) and np.array_equal(nodes[-k:], tail)):
        problems.append("boundary nodes differ from the config")


def _max_del(system, nodes, lambdas, components=slice(None)):
    """Largest DEL residual entry over the interior nodes."""
    k = system.k
    path = DiscretePath(nodes)
    mult = MultiplierSequence(lambdas)
    N = path.N
    return max(
        float(np.max(np.abs(del_residual(system, path, mult, p)[components])))
        for p in range(k, N - k + 1)
    )


def _max_constraint(system, nodes):
    path = DiscretePath(nodes)
    return max(
        float(np.max(np.abs(constraint_residual(system, path, i))))
        for i in range(path.N - system.k + 1)
    )


def _shape(problems, nodes, rows, cols):
    if nodes.shape != (rows, cols):
        problems.append(f"trajectory has shape {nodes.shape}, expected {(rows, cols)}")
        return False
    return True


def check_sphere(cfg, times, nodes, lambdas):
    p = cfg["params"]
    r, h, N = float(p["r"]), float(p["h"]), int(p["N"])
    tol = cfg["solver"]["tol"]
    problems = []
    if not _shape(problems, nodes, N + 1, 3):
        return problems
    system = sphere_spline_system(r, h)
    _boundary(problems, nodes, cfg["boundary"]["head"], cfg["boundary"]["tail"])
    _limit(problems, "DEL residual", _max_del(system, nodes, lambdas[: N - 1]), DEL_TOL_FACTOR * tol)
    _limit(problems, "constraint residual", _max_constraint(system, nodes), DEL_TOL_FACTOR * tol)
    defect = float(np.max(np.abs(np.linalg.norm(nodes, axis=1) - r)))
    _limit(problems, "sphere norm defect", defect, SPHERE_NORM_DEFECT)
    return problems


def check_custom(cfg, times, nodes, lambdas):
    p = cfg["params"]
    k, n, m, N = int(p["k"]), int(p["n"]), int(p.get("m", 0)), int(p["N"])
    tol = cfg["solver"]["tol"]
    problems = []
    if not _shape(problems, nodes, N + 1, n):
        return problems
    system = polynomial_system(k, n, m, int(p.get("seed", 0)), degree=int(p.get("degree", 2)))
    lams = lambdas[: N - k + 1] if m else np.zeros((N - k + 1, 0))
    _boundary(problems, nodes, cfg["boundary"]["head"], cfg["boundary"]["tail"])
    _limit(problems, "DEL residual", _max_del(system, nodes, lams), DEL_TOL_FACTOR * tol)
    if m:
        _limit(problems, "constraint residual", _max_constraint(system, nodes), DEL_TOL_FACTOR * tol)
    return problems


def _coefficients(params, key, default):
    c = np.atleast_1d(np.asarray(params.get(key, default), dtype=float))
    return c, P.polyder(c)


def check_beam(cfg, times, nodes, lambdas):
    p = cfg["params"]
    N = int(p["N"])
    tol = cfg["solver"]["tol"]
    b = cfg["boundary"]
    problems = []
    if not _shape(problems, nodes, N + 1, 1):
        return problems
    if np.any(np.diff(times) <= 0):
        return problems + ["time nodes are not strictly increasing"]
    mu_c, dmu_c = _coefficients(p, "mu", 1.0)
    rho_c, drho_c = _coefficients(p, "rho", 0.0)
    system = beam_system(
        lambda t: P.polyval(t, mu_c),
        lambda t: P.polyval(t, rho_c),
        lambda t: P.polyval(t, dmu_c),
        lambda t: P.polyval(t, drho_c),
    )
    extended = timedep.extend(system)
    ext = np.column_stack([times, nodes])
    head = np.column_stack([b["head_times"], b["head"]])
    tail = np.column_stack([b["tail_times"], b["tail"]])
    _boundary(problems, ext, head, tail)
    _limit(problems, "DEL residual", _max_del(extended, ext, np.zeros((N - 1, 0))), DEL_TOL_FACTOR * tol)
    # Discrete energy is conserved only when the coefficients do not
    # depend on time; otherwise the DEL time rows above carry the balance.
    if not (np.any(dmu_c) or np.any(drho_c)):
        energies = [timedep.discrete_energy(system, times, nodes, i) for i in range(1, N - 1)]
        _limit(problems, "energy drift", max(energies) - min(energies), ENERGY_TOL_FACTOR * tol)
    return problems


def _ocp_lagrangian(n: int, stiffness) -> WindowFunction:
    """The CLI's controlled Lagrangian |v|^2/2 - q_bar^T K q_bar/2 on (t, q)."""
    K = np.asarray(stiffness, dtype=float)
    K = 0.5 * (K + K.T)

    def parts(w):
        dt = w[1, 0] - w[0, 0]
        return dt, (w[1, 1:] - w[0, 1:]) / dt, 0.5 * (w[0, 1:] + w[1, 1:])

    def lag(w):
        dt, v, qb = parts(w)
        return 0.5 * float(v @ v) - 0.5 * float(qb @ K @ qb)

    def grad(sign):
        def g(w):
            dt, v, qb = parts(w)
            out = np.empty(n + 1)
            out[0] = sign * float(v @ v) / dt
            out[1:] = -sign * v / dt - 0.5 * (K @ qb)
            return out

        return g

    return WindowFunction(1, n + 1, lag, (grad(1.0), grad(-1.0)))


def check_ocp(cfg, times, nodes, lambdas):
    p = cfg["params"]
    n, r, N = int(p["n"]), int(p["r"]), int(p["N"])
    tol = cfg["solver"]["tol"]
    weight = float(p.get("cost_weight", 1.0))
    problems = []
    if not _shape(problems, nodes, N + 1, n):
        return problems
    expected = float(p.get("t0", 0.0)) + float(p.get("h", 0.25)) * np.arange(N + 1)
    if not np.array_equal(times, expected):
        problems.append("time nodes differ from t0 + h*i")
    spec = UnderactuatedSpec(
        n, r, _ocp_lagrangian(n, p["stiffness"]), lambda w2, u: 0.5 * weight * float(u @ u)
    )
    system = underactuated_to_constrained(spec)
    ext = np.column_stack([times, nodes])
    _boundary(problems, nodes, cfg["boundary"]["head"], cfg["boundary"]["tail"])
    # Times are prescribed, so only the spatial DEL rows are imposed.
    spatial = slice(1, None)
    _limit(problems, "DEL residual", _max_del(system, ext, lambdas[: N - 1], spatial), DEL_TOL_FACTOR * tol)
    _limit(problems, "constraint residual", _max_constraint(system, ext), OCP_CONSTRAINT)
    return problems


_CLI_CHECKS = {
    "sphere-spline": check_sphere,
    "custom-polynomial": check_custom,
    "beam": check_beam,
    "ocp": check_ocp,
}


def check_cli_output(cfg: dict, trajectory_csv: str) -> list:
    """Check a converged ``hovi run`` trajectory against its config."""
    times, nodes, lambdas = read_trajectory_csv(trajectory_csv)
    return _CLI_CHECKS[cfg["system"]](cfg, times, nodes, lambdas)


def check_step_trajectory(system, r, traj, symplectic_defects, momentum_drift) -> list:
    """Check a one-step-map trajectory of the sphere spline.

    The trajectory's nodes and multipliers form a discrete path on which
    every DEL residual imposed by a step, and the sphere constraint at
    every node, must hold.
    """
    problems = []
    nodes = np.vstack([traj[0].configs] + [st.configs[-1:] for st in traj[1:]])
    lambdas = np.vstack([traj[0].multipliers] + [st.multipliers[-1:] for st in traj[1:]])
    _limit(problems, "DEL residual", _max_del(system, nodes, lambdas), DEL_TOL_FACTOR * DEFAULT_TOL)
    defect = float(np.max(np.abs(np.linalg.norm(nodes, axis=1) - r)))
    _limit(problems, "sphere norm defect", defect, SPHERE_NORM_DEFECT)
    for d in symplectic_defects:
        _limit(problems, "restricted symplectic defect", d, SYMPLECTIC_DEFECT)
    _limit(problems, "momentum drift", momentum_drift, MOMENTUM_DRIFT)
    return problems
