"""Constrained discrete Euler-Lagrange residuals and their solvers.

The stationarity conditions of the augmented discrete action couple
2k+1 consecutive nodes.  They are solved either globally, as a
boundary-value problem in the interior nodes and all multipliers, or
locally, as a one-step map advancing a 2k-node window and its k
multiplier vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConstrainedSystem,
    DiscretePath,
    MultiplierSequence,
    as_window,
)
from .derivatives import central_difference, cross_partial, partial
from .errors import DimensionError, NonConvergenceError, NumericError, RegularityError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50
_COND_LIMIT = 1e13
_MAX_HALVINGS = 30
_JAC_STEP = 1e-7


@dataclass(frozen=True)
class BoundaryData:
    """Fixed head nodes q_0..q_{k-1} and tail nodes q_{N-k+1}..q_N."""

    head: np.ndarray
    tail: np.ndarray
    N: int

    def __post_init__(self):
        head = np.atleast_2d(np.asarray(self.head, dtype=float))
        tail = np.atleast_2d(np.asarray(self.tail, dtype=float))
        if head.shape != tail.shape:
            raise DimensionError("head and tail boundary blocks must have equal shape")
        k = head.shape[0]
        if self.N <= 2 * k:
            raise DimensionError(f"need N > 2k, got N={self.N} with k={k}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    @property
    def k(self) -> int:
        return self.head.shape[0]

    def checked(self, k: int, n: int) -> "BoundaryData":
        """This boundary data, after checking its blocks have shape (k, n)."""
        if self.head.shape != (k, n):
            raise DimensionError(
                f"boundary blocks have shape {self.head.shape}, expected {(k, n)}"
            )
        return self


@dataclass(frozen=True)
class StepState:
    """2k consecutive nodes and the k trailing multiplier vectors.

    The state of the one-step map and the point at which the boundary
    one-forms, the two-form and the momentum maps are evaluated.
    """

    configs: np.ndarray
    multipliers: np.ndarray

    def __post_init__(self):
        configs = np.atleast_2d(np.asarray(self.configs, dtype=float))
        mult = np.asarray(self.multipliers, dtype=float)
        if mult.ndim == 1:
            mult = mult[:, None]
        if configs.shape[0] % 2 != 0 or configs.shape[0] < 2:
            raise DimensionError("step state needs 2k config rows")
        if mult.shape[0] != configs.shape[0] // 2:
            raise DimensionError(
                f"expected {configs.shape[0] // 2} multiplier rows, got {mult.shape[0]}"
            )
        if not (np.all(np.isfinite(configs)) and np.all(np.isfinite(mult))):
            raise DimensionError("step state has non-finite entries")
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "multipliers", mult)

    @property
    def k(self) -> int:
        return self.configs.shape[0] // 2

    def flatten(self) -> np.ndarray:
        """Coordinates z: the configs row by row, then the multipliers."""
        return np.concatenate([self.configs.ravel(), self.multipliers.ravel()])

    def checked(self, system: ConstrainedSystem) -> "StepState":
        """This state, after checking it matches the system's (k, n, m)."""
        k, n, m = system.k, system.n, system.m
        if self.k != k or self.configs.shape[1] != n or self.multipliers.shape[1] != m:
            raise DimensionError("step state does not match system (k, n, m)")
        return self


@dataclass
class SolveReport:
    iterations: int = 0
    final_residual_norm: float = np.inf
    jacobian_condition_estimate: float = np.nan
    converged: bool = False
    residual_history: list = field(default_factory=list)


def _del_residual_nodes(
    system: ConstrainedSystem,
    nodes: np.ndarray,
    lambdas: np.ndarray,
    p: int,
) -> np.ndarray:
    """Stationarity residual at node p on raw (N+1, n) node data."""
    k = system.k
    res = np.zeros(system.n)
    for j in range(1, k + 2):
        s = p - j + 1
        window = nodes[s : s + k + 1]
        res += partial(system.lagrangian, j, window)
        for alpha, phi in enumerate(system.constraints):
            res += lambdas[s, alpha] * partial(phi, j, window)
    return res


def del_residual(
    system: ConstrainedSystem,
    path: DiscretePath,
    multipliers: MultiplierSequence,
    p: int,
) -> np.ndarray:
    """Discrete Euler-Lagrange residual at interior node p.

    Sums D_j of the augmented window value over the k+1 windows that
    contain node p, each paired with its own multiplier vector.
    """
    k = system.k
    N = path.N
    if not k <= p <= N - k:
        raise DimensionError(f"node index {p} outside interior range {k}..{N - k}")
    if multipliers.lambdas.shape != (N - k + 1, system.m):
        raise DimensionError("multiplier sequence shape does not match path")
    return _del_residual_nodes(system, path.nodes, multipliers.lambdas, p)


def constraint_residual(
    system: ConstrainedSystem, path: DiscretePath, i: int
) -> np.ndarray:
    """Vector of the m constraint values on window i."""
    window = path.window(i, system.k)
    return np.array([phi.value(window) for phi in system.constraints])


def regularity_matrix(system: ConstrainedSystem, window, lam) -> np.ndarray:
    """Bordered matrix whose invertibility defines the one-step map.

    Layout: [[D_(1,k+1) of the augmented window value (n x n),
              D_(k+1) of the constraints (n x m)],
             [D_1 of the constraints transposed (m x n), 0]].
    """
    k, n, m = system.k, system.n, system.m
    w = as_window(window, k, n)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (m,):
        raise DimensionError(f"lambda has shape {lam.shape}, expected ({m},)")
    top_left = cross_partial(system.lagrangian, 1, k + 1, w)
    for alpha, phi in enumerate(system.constraints):
        top_left = top_left + lam[alpha] * cross_partial(phi, 1, k + 1, w)
    mat = np.zeros((n + m, n + m))
    mat[:n, :n] = top_left
    for alpha, phi in enumerate(system.constraints):
        mat[:n, n + alpha] = partial(phi, k + 1, w)
        mat[n + alpha, :n] = partial(phi, 1, w)
    return mat


def newton_solve(residual, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Damped Newton on a square nonlinear system.

    Backtracks by halving on the max-norm of the residual; falls back to
    the full step when no decrease is found (roundoff floor).  Raises
    RegularityError on a singular/ill-conditioned Jacobian and
    NonConvergenceError (carrying the last iterate) at the iteration cap.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport()
    f = np.asarray(residual(x), dtype=float)
    if f.shape != x.shape:
        raise DimensionError(
            f"residual dimension {f.shape} does not match unknowns {x.shape}"
        )
    fnorm = float(np.max(np.abs(f))) if f.size else 0.0
    report.residual_history.append(fnorm)
    report.final_residual_norm = fnorm

    for it in range(max_iter):
        if fnorm <= tol:
            report.converged = True
            return x, report
        jac = _fd_jacobian(residual, x)
        if not np.all(np.isfinite(jac)):
            raise NumericError("non-finite entries in Newton Jacobian")
        cond = float(np.linalg.cond(jac))
        report.jacobian_condition_estimate = cond
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise RegularityError(
                f"singular Newton Jacobian (condition estimate {cond:.3e})",
                condition=cond,
            )
        u, sv, vt = np.linalg.svd(jac)
        utf = u.T @ f

        # Damped Newton with a Levenberg-Marquardt ladder.  Each rung
        # backtracks under a sufficient-decrease test; near-degenerate
        # systems (free-time problems are close to reparametrization
        # invariance) blow the undamped step up along the smallest
        # singular directions, and the damped rungs recover progress.
        best = None
        for mu in (0.0, sv[0] * 1e-9, sv[0] * 1e-6, sv[0] * 1e-3, sv[0] * 1e-1):
            dx = -vt.T @ (sv / (sv ** 2 + mu ** 2) * utf)
            alpha = 1.0
            for _ in range(12):
                x_try = x + alpha * dx
                f_try = np.asarray(residual(x_try), dtype=float)
                fnorm_try = float(np.max(np.abs(f_try)))
                if np.isfinite(fnorm_try) and fnorm_try <= (1.0 - 0.1 * alpha) * fnorm:
                    best = (x_try, f_try, fnorm_try)
                    break
                alpha *= 0.5
            if best is not None:
                break
        if best is None:
            # Roundoff floor: accept any decrease along the pure Newton
            # direction, or take the full step and move on.
            dx = -vt.T @ (utf / sv)
            alpha = 1.0
            for _ in range(_MAX_HALVINGS):
                x_try = x + alpha * dx
                f_try = np.asarray(residual(x_try), dtype=float)
                fnorm_try = float(np.max(np.abs(f_try)))
                if np.isfinite(fnorm_try) and fnorm_try < fnorm:
                    best = (x_try, f_try, fnorm_try)
                    break
                alpha *= 0.5
            if best is None:
                x_try = x + dx
                f_try = np.asarray(residual(x_try), dtype=float)
                fnorm_try = float(np.max(np.abs(f_try)))
                if not np.isfinite(fnorm_try):
                    raise NumericError("non-finite residual during Newton iteration")
                best = (x_try, f_try, fnorm_try)
        x, f, fnorm = best
        report.iterations = it + 1
        report.residual_history.append(fnorm)
        report.final_residual_norm = fnorm

    if fnorm <= tol:
        report.converged = True
        return x, report
    raise NonConvergenceError(
        f"Newton did not reach tol={tol:.3e} in {max_iter} iterations "
        f"(residual {fnorm:.3e})",
        last_iterate=x,
        report=report,
    )


def _fd_jacobian(residual, x):
    return central_difference(residual, x, _JAC_STEP)


def initial_guess(boundary: BoundaryData, pins=None):
    """Linear initial guess for a boundary-value solve and its unknown mask.

    Copies the head and tail blocks and interpolates the interior
    linearly through the anchors (k-1, head[-1]), the pinned nodes
    (index -> point) and (N-k+1, tail[0]).  The mask marks every interior
    coordinate except those of the pinned nodes.
    """
    k, N = boundary.k, boundary.N
    pins = pins or {}
    nodes = np.zeros((N + 1, boundary.head.shape[1]))
    nodes[:k] = boundary.head
    nodes[N - k + 1 :] = boundary.tail
    anchors = [(k - 1, boundary.head[-1])]
    anchors += sorted(pins.items())
    anchors.append((N - k + 1, boundary.tail[0]))
    for (ia, qa), (ib, qb) in zip(anchors, anchors[1:]):
        for p in range(ia + 1, ib):
            t = (p - ia) / (ib - ia)
            nodes[p] = (1.0 - t) * qa + t * qb
    mask = np.zeros(nodes.shape, dtype=bool)
    mask[k : N - k + 1] = True
    for i, point in pins.items():
        nodes[i] = point
        mask[i] = False
    return nodes, mask


def solve_masked(
    system: ConstrainedSystem,
    nodes0: np.ndarray,
    q_mask: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Newton solve with selected node coordinates as unknowns.

    q_mask marks the unknown scalar coordinates (interior nodes only);
    the DEL residual is imposed on exactly those components.  All
    multipliers are unknown, starting from zero, and all window
    constraints are imposed whenever m > 0.
    """
    k, m = system.k, system.m
    nodes0 = np.asarray(nodes0, dtype=float)
    N = nodes0.shape[0] - 1
    nwin = N - k + 1
    q_mask = np.asarray(q_mask, dtype=bool)
    if q_mask.shape != nodes0.shape:
        raise DimensionError("mask must match the node array shape")
    if q_mask[:k].any() or q_mask[N - k + 1 :].any():
        raise DimensionError("boundary nodes cannot be unknowns")
    nq = int(q_mask.sum())
    eq_rows = [p for p in range(k, N - k + 1) if q_mask[p].any()]

    def residual(x):
        nodes = nodes0.copy()
        nodes[q_mask] = x[:nq]
        lams = x[nq:].reshape(nwin, m)
        parts = [
            _del_residual_nodes(system, nodes, lams, p)[q_mask[p]] for p in eq_rows
        ]
        for i in range(nwin):
            window = nodes[i : i + k + 1]
            parts.append(np.array([phi.value(window) for phi in system.constraints]))
        return np.concatenate(parts) if parts else np.zeros(0)

    x0 = np.concatenate([nodes0[q_mask], np.zeros(nwin * m)])

    # A constraint whose window holds only fixed nodes (and whose
    # multiplier consequently enters no retained equation) would make the
    # stacked Jacobian structurally singular.  Freeze such pairs out of
    # the Newton system and verify their residuals afterwards.
    keep = np.ones(x0.size, dtype=bool)
    if m > 0 and x0.size:
        jac0 = _fd_jacobian(residual, x0)
        keep[nq:] = jac0[nq:].any(axis=1) | jac0[:, nq:].any(axis=0)

    def embed(x_red):
        x_full = x0.copy()
        x_full[keep] = x_red
        return x_full

    def reduced(x_red):
        return np.asarray(residual(embed(x_red)), dtype=float)[keep]

    def solution(x_full):
        nodes = nodes0.copy()
        nodes[q_mask] = x_full[:nq]
        return DiscretePath(nodes), MultiplierSequence(x_full[nq:].reshape(nwin, m))

    try:
        x_red, report = newton_solve(reduced, x0[keep], tol=tol, max_iter=max_iter)
    except NonConvergenceError as err:
        err.last_iterate = solution(embed(err.last_iterate))
        raise
    x = embed(x_red)
    path, mult = solution(x)
    if not keep.all():
        infeasible = float(np.max(np.abs(np.asarray(residual(x), dtype=float)[~keep])))
        if infeasible > max(tol, 1e-9):
            raise NonConvergenceError(
                f"boundary data violates a fixed constraint window "
                f"(residual {infeasible:.3e})",
                last_iterate=(path, mult),
                report=report,
            )
    return path, mult, report


def solve_bvp(
    system: ConstrainedSystem,
    boundary: BoundaryData,
    guess_path: DiscretePath | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Solve the constrained DEL boundary-value problem.

    Unknowns are the interior nodes q_k..q_{N-k} and all multipliers;
    equations are the DEL residuals at every interior node and the
    constraints on every window.  The interior starts from guess_path
    when given, from the linear initial guess otherwise.
    """
    k, n = system.k, system.n
    N = boundary.checked(k, n).N
    nodes0, q_mask = initial_guess(boundary)
    if guess_path is not None:
        if guess_path.nodes.shape != (N + 1, n):
            raise DimensionError("guess path shape does not match boundary data")
        nodes0[q_mask] = guess_path.nodes[q_mask]
    return solve_masked(system, nodes0, q_mask, tol, max_iter)


def step(
    system: ConstrainedSystem,
    state: StepState,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Advance the one-step map by one node.

    Solves n+m equations for the new node and multiplier: the DEL
    residual at the centre node of the extended 2k+1 window, plus one
    constraint equation per constraint function, imposed through the
    last window factor that constraint actually depends on (so the
    equation genuinely pins the new node).  For constraints depending on
    their final factor this is the constraint on the final window; for
    first-node constraints it is the constraint evaluated at the new
    node, as in the sphere-spline equations.
    """
    k, n, m = system.k, system.n, system.m
    state.checked(system)
    nodes = np.zeros((2 * k + 1, n))
    nodes[: 2 * k] = state.configs
    nodes[2 * k] = 2.0 * state.configs[-1] - state.configs[-2]
    lam_guess = state.multipliers[-1]

    # Last factor through which each constraint sees a node: determines
    # which window's constraint equation involves the new point.
    probe = nodes[k:]
    jstar = []
    for phi in system.constraints:
        found = None
        for j in range(k + 1, 0, -1):
            if np.any(partial(phi, j, probe) != 0.0):
                found = j
                break
        if found is None:
            raise RegularityError(
                "constraint depends on no window factor", condition=np.inf
            )
        jstar.append(found)

    def constraint_window(local, js):
        start = 2 * k - js + 1
        pad = start + k - 2 * k
        if pad <= 0:
            return local[start : start + k + 1]
        return np.vstack([local[start:], np.tile(local[2 * k], (pad, 1))])

    def residual(x):
        local = nodes.copy()
        local[2 * k] = x[:n]
        lams = np.vstack([state.multipliers, x[n:].reshape(1, m)])
        r = _del_residual_nodes(system, local, lams, k)
        c = np.array(
            [
                phi.value(constraint_window(local, js))
                for phi, js in zip(system.constraints, jstar)
            ]
        )
        return np.concatenate([r, c])

    x0 = np.concatenate([nodes[2 * k], lam_guess])
    try:
        x, report = newton_solve(residual, x0, tol=tol, max_iter=max_iter)
    except NonConvergenceError as err:
        err.last_iterate = err.last_iterate.copy()
        raise
    new_configs = np.vstack([state.configs[1:], x[:n].reshape(1, n)])
    new_mult = np.vstack([state.multipliers[1:], x[n:].reshape(1, m)])
    return StepState(new_configs, new_mult), report
