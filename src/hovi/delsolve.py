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

# as_window is not called here; perfbench/tracing.py wraps it under this name.
from .core import ConstrainedSystem, DiscretePath, MultiplierSequence, as_window
from .derivatives import _column_groups, central_difference, partial
from .errors import DimensionError, NonConvergenceError, NumericError, RegularityError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50
_COND_LIMIT = 1e13
_JAC_STEP = 1e-7


@dataclass(frozen=True)
class BoundaryData:
    """Fixed head nodes q_0..q_{k-1}, tail nodes q_{N-k+1}..q_N, and pins.

    ``pins`` maps integer interior node indices to points the solution
    must pass through (Riemannian interpolation); empty for a plain
    boundary-value problem.
    """

    head: np.ndarray
    tail: np.ndarray
    N: int
    pins: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        head = np.atleast_2d(np.asarray(self.head, dtype=float))
        tail = np.atleast_2d(np.asarray(self.tail, dtype=float))
        if head.shape != tail.shape:
            raise DimensionError("head and tail boundary blocks must have equal shape")
        k = head.shape[0]
        if self.N <= 2 * k:
            raise DimensionError(f"need N > 2k, got N={self.N} with k={k}")
        for i in self.pins:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise DimensionError(f"pin index {i!r} is not an integer")
        pins = {int(i): np.asarray(q, dtype=float) for i, q in self.pins.items()}
        if not all(np.isfinite(a).all() for a in (head, tail, *pins.values())):
            raise DimensionError("boundary data has non-finite entries")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "pins", pins)

    @property
    def k(self) -> int:
        return self.head.shape[0]

    def checked(self, k: int, n: int) -> "BoundaryData":
        """This boundary data, after checking its blocks and pins fit (k, n)."""
        if self.head.shape != (k, n):
            raise DimensionError(
                f"boundary blocks have shape {self.head.shape}, expected {(k, n)}"
            )
        for i, point in self.pins.items():
            if not k <= i <= self.N - k:
                raise DimensionError(
                    f"pin index {i} outside interior range {k}..{self.N - k}"
                )
            if point.shape != (n,):
                raise DimensionError(f"pin {i} has shape {point.shape}, expected ({n},)")
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
        if not (np.isfinite(configs).all() and np.isfinite(mult).all()):
            raise DimensionError("step state has non-finite entries")
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "multipliers", mult)

    @property
    def k(self) -> int:
        return self.configs.shape[0] // 2

    def flatten(self) -> np.ndarray:
        """Coordinates z: the configs row by row, then the multipliers."""
        return np.concatenate([self.configs.ravel(), self.multipliers.ravel()])

    @classmethod
    def unflatten(cls, z: np.ndarray, k: int, n: int, m: int) -> "StepState":
        """The state with coordinates z; the inverse of flatten."""
        nq = 2 * k * n
        return cls(z[:nq].reshape(2 * k, n), z[nq:].reshape(k, m))

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


def node_gradient(
    system: ConstrainedSystem,
    nodes: np.ndarray,
    lambdas: np.ndarray,
    p: int,
) -> np.ndarray:
    """Gradient in node p of the augmented action of a node block.

    Sums D_j of L + lambda . Phi over the windows of the block that
    contain node p, the last such window first (j ascending); window s
    holds nodes[s : s+k+1] and pairs with lambdas[s].  At an interior
    node this is the DEL residual; on the 2k nodes of a step state its
    first k rows are minus theta_minus and its last k rows theta_plus.
    """
    k = system.k
    res = np.zeros(system.n)
    for j in range(max(1, p + k + 2 - nodes.shape[0]), min(p, k) + 2):
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
    return node_gradient(system, path.nodes, multipliers.lambdas, p)


def constraint_residual(
    system: ConstrainedSystem, path: DiscretePath, i: int
) -> np.ndarray:
    """Vector of the m constraint values on window i."""
    window = path.window(i, system.k)
    return np.array([phi.value(window) for phi in system.constraints])


def constraint_gradients(system: ConstrainedSystem, window) -> np.ndarray:
    """The partials D_j phi_alpha on one window, indexed [alpha, j-1]: (m, k+1, n).

    Its nonzero entries are the window coordinates a constraint reads.
    """
    k = system.k
    grads = [partial(phi, j, window) for phi in system.constraints for j in range(1, k + 2)]
    return np.reshape(grads, (system.m, k + 1, system.n))


def _constraint_reads(system: ConstrainedSystem, window) -> np.ndarray:
    """The window coordinates each constraint reads, as (m, k+1, n) booleans.

    A coordinate counts when its constraint partial is nonzero on the
    window or on one fixed nearby window, so a gradient that vanishes at
    the window alone (the sphere's at the origin) still counts.
    """
    window = np.asarray(window, dtype=float)
    shift = np.sin(np.arange(1.0, window.size + 1)).reshape(window.shape)
    nearby = window + 1e-3 * (1.0 + np.abs(window)) * shift
    return (constraint_gradients(system, window) != 0.0) | (
        constraint_gradients(system, nearby) != 0.0
    )


def newton_solve(residual, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, pattern=None):
    """Damped Newton on a square nonlinear system.

    Every accepted iterate passes a sufficient-decrease test on the
    max-norm of the residual.  pattern, when given, is the boolean
    sparsity pattern of the Jacobian, which is then colored once and
    differenced by column groups (see central_difference).  Raises
    RegularityError on a singular/ill-conditioned Jacobian, and
    NonConvergenceError (carrying the last accepted iterate) when the line
    search finds no decrease or at the iteration cap.
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
    groups = None if pattern is None else _column_groups(pattern)

    for it in range(max_iter):
        if fnorm <= tol:
            report.converged = True
            return x, report
        u, sv, vt, report.jacobian_condition_estimate = _regular_svd(
            _fd_jacobian(residual, x, pattern, groups)
        )
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
            raise NonConvergenceError(
                f"Newton line search found no decrease of the residual "
                f"{fnorm:.3e} at any damping level (iteration {it + 1})",
                last_iterate=x,
                report=report,
            )
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


def _fd_jacobian(residual, x, pattern=None, groups=None):
    return central_difference(residual, x, _JAC_STEP, pattern, groups)


def _regular_svd(jac, what="Newton Jacobian"):
    """SVD of jac, the Jacobian that what names, and its condition sv[0] / sv[-1].

    Raises RegularityError when the estimate exceeds _COND_LIMIT.
    """
    if not np.isfinite(jac).all():
        raise NumericError(f"non-finite entries in {what}")
    u, sv, vt = np.linalg.svd(jac)
    cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else np.inf
    if cond > _COND_LIMIT:
        raise RegularityError(
            f"singular {what} (condition estimate {cond:.3e})",
            condition=cond,
        )
    return u, sv, vt, cond


def initial_guess(boundary: BoundaryData):
    """Linear initial guess for a boundary-value solve and its unknown mask.

    Copies the head and tail blocks and interpolates the interior
    linearly through the anchors (k-1, head[-1]), the pins
    (index -> point) and (N-k+1, tail[0]).  The mask marks every interior
    coordinate except those of the pinned nodes.
    """
    k, N, pins = boundary.k, boundary.N, boundary.pins
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
    the DEL residual is imposed on exactly those components.  A window
    constraint that reads an unknown coordinate is imposed, its multiplier
    starting from zero; one that reads only fixed nodes must hold there to
    max(tol, 1e-9), or DimensionError is raised before the solve.
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
            node_gradient(system, nodes, lams, p)[q_mask[p]] for p in eq_rows
        ]
        for i in range(nwin):
            window = nodes[i : i + k + 1]
            parts.append(np.array([phi.value(window) for phi in system.constraints]))
        return np.concatenate(parts) if parts else np.zeros(0)

    x0 = np.concatenate([nodes0[q_mask], np.zeros(nwin * m)])

    # The pair (window i, constraint alpha) enters the Newton system iff
    # phi_alpha reads an unknown coordinate of window i.  Otherwise its
    # multiplier enters no DEL row and phi_alpha reads only fixed data.
    keep = np.ones(x0.size, dtype=bool)
    for i in range(nwin):
        window = nodes0[i : i + k + 1]
        reads = _constraint_reads(system, window) & q_mask[i : i + k + 1]
        moves = reads.any(axis=(1, 2))
        keep[nq + i * m : nq + (i + 1) * m] = moves
        for alpha in np.flatnonzero(~moves):
            value = system.constraints[alpha].value(window)
            if abs(value) > max(tol, 1e-9):
                raise DimensionError(
                    f"fixed nodes violate constraint {alpha} on window {i} ({value:.3e})"
                )

    # The structure of the Newton system, rows laid out like the unknowns:
    # node p's DEL row reads nodes p-k..p+k and the multipliers of windows
    # p-k..p; the constraint rows of window i read nodes i..i+k.
    node = np.nonzero(q_mask)[0]
    lag = node[:, None] - np.repeat(np.arange(nwin), m)[None, :]
    in_window = (lag >= 0) & (lag <= k)
    pattern = np.block(
        [
            [np.abs(node[:, None] - node[None, :]) <= k, in_window],
            [in_window.T, np.zeros((nwin * m, nwin * m), dtype=bool)],
        ]
    )[np.ix_(keep, keep)]

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
        x_red, report = newton_solve(
            reduced, x0[keep], tol=tol, max_iter=max_iter, pattern=pattern
        )
    except NonConvergenceError as err:
        err.last_iterate = solution(embed(err.last_iterate))
        raise
    path, mult = solution(embed(x_red))
    return path, mult, report


def solve_bvp(
    system: ConstrainedSystem,
    boundary: BoundaryData,
    guess_path: DiscretePath | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Solve the constrained DEL boundary-value problem.

    Unknowns are the interior nodes q_k..q_{N-k} that are not pinned and
    all multipliers; equations are the DEL residuals at those nodes and
    the constraints on every window.  Pinned nodes are fixed data, like
    the boundary blocks.  The unknown nodes start from guess_path when
    given, from the linear initial guess otherwise.
    """
    k, n = system.k, system.n
    N = boundary.checked(k, n).N
    nodes0, q_mask = initial_guess(boundary)
    if guess_path is not None:
        if guess_path.nodes.shape != (N + 1, n):
            raise DimensionError("guess path shape does not match boundary data")
        nodes0[q_mask] = guess_path.nodes[q_mask]
    return solve_masked(system, nodes0, q_mask, tol, max_iter)


def _step_equations(system: ConstrainedSystem, state: StepState):
    """The one-step map's equations residual(x) = 0 from state, and a guess x0.

    x is the new node and its multiplier vector.  The residual stacks the
    DEL residual at the centre node of the extended 2k+1 window and, per
    constraint, that constraint through the last window factor it reads,
    so the equation pins the new node: on the final window for a
    constraint on its last factor, at the new node alone for a first-node
    constraint such as the sphere's.  x0 extrapolates the last two nodes.
    """
    k, n, m = system.k, system.n, system.m
    state.checked(system)
    nodes = np.zeros((2 * k + 1, n))
    nodes[: 2 * k] = state.configs
    nodes[2 * k] = 2.0 * state.configs[-1] - state.configs[-2]

    # Last factor through which each constraint sees a node: determines
    # which window's constraint equation involves the new point.
    reads = _constraint_reads(system, nodes[k:]).any(axis=2)
    if not reads.any(axis=1).all():
        raise RegularityError("constraint depends on no window factor", condition=np.inf)
    jstar = [int(np.flatnonzero(r)[-1]) + 1 for r in reads]
    # Window rows of each constraint equation: factor js on the new node
    # 2k, any later factors repeating it.
    rows = [np.minimum(np.arange(2 * k - js + 1, 3 * k - js + 2), 2 * k) for js in jstar]

    def residual(x):
        local = nodes.copy()
        local[2 * k] = x[:n]
        lams = np.vstack([state.multipliers, x[n:].reshape(1, m)])
        r = node_gradient(system, local, lams, k)
        c = np.array([phi.value(local[w]) for phi, w in zip(system.constraints, rows)])
        return np.concatenate([r, c])

    return residual, np.concatenate([nodes[2 * k], state.multipliers[-1]])


def step(
    system: ConstrainedSystem,
    state: StepState,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Advance the one-step map by one node: solve _step_equations, then shift.

    A guess that already solves the equations is accepted only where
    their Jacobian is regular, as every Newton iterate is.
    """
    n, m = system.n, system.m
    residual, x0 = _step_equations(system, state)
    x, report = newton_solve(residual, x0, tol=tol, max_iter=max_iter)
    if report.iterations == 0:
        jac = _fd_jacobian(residual, x)
        report.jacobian_condition_estimate = _regular_svd(jac, "step equations at the guess")[3]
    new_configs = np.vstack([state.configs[1:], x[:n].reshape(1, n)])
    new_mult = np.vstack([state.multipliers[1:], x[n:].reshape(1, m)])
    return StepState(new_configs, new_mult), report
