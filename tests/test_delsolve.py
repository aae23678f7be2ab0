import numpy as np
import pytest

from hovi.cli import polynomial_system
from hovi.core import (
    ConstrainedSystem,
    DiscretePath,
    MultiplierSequence,
    WindowFunction,
    discrete_action,
)
from hovi import delsolve, derivatives
from hovi.delsolve import (
    BoundaryData,
    StepState,
    constraint_gradients,
    constraint_residual,
    del_residual,
    newton_solve,
    solve_bvp,
    step,
)
from hovi.derivatives import partial
from hovi.errors import DimensionError, NonConvergenceError, NumericError, RegularityError
from hovi.applications import (
    beam_system,
    solve_ocp,
    sphere_spline_system,
    underactuated_to_constrained,
)
from hovi.geometry import theta_minus, theta_plus
from hovi.timedep import TimedPath, solve_free_times

from util_systems import desk_ocp, free_particle, second_difference_system


def circle_nodes(indices, theta=0.3):
    return np.array(
        [[np.cos(i * theta), np.sin(i * theta), 0.0] for i in indices]
    )


def test_del_residual_free_particle_linear_path():
    system = free_particle(h=0.5)
    path = DiscretePath(1.5 + 0.7 * np.arange(6.0))
    mult = MultiplierSequence.zeros(5, 0)
    for p in range(1, 5):
        np.testing.assert_allclose(del_residual(system, path, mult, p), 0.0, atol=1e-12)


def test_del_residual_cubic_fourth_difference():
    # the k=2 residual is the fourth difference, which annihilates cubics
    system = second_difference_system(h=1.0)
    path = DiscretePath(np.array([float(j ** 3) for j in range(7)]))
    mult = MultiplierSequence.zeros(5, 0)
    for p in range(2, 5):
        np.testing.assert_allclose(del_residual(system, path, mult, p), 0.0, atol=1e-10)


def test_del_residual_index_range():
    system = free_particle()
    path = DiscretePath(np.arange(5.0))
    mult = MultiplierSequence.zeros(4, 0)
    with pytest.raises(DimensionError):
        del_residual(system, path, mult, 0)
    with pytest.raises(DimensionError):
        del_residual(system, path, mult, 4)


def test_del_residual_matches_action_gradient():
    # oracle: central finite difference of the augmented action in q_p
    system = polynomial_system(2, 1, 1, seed=42, degree=4)
    rng = np.random.default_rng(7)
    N = 6
    nodes = rng.normal(size=(N + 1, 1))
    lams = rng.normal(size=(N - 1, 1))
    path = DiscretePath(nodes)
    mult = MultiplierSequence(lams)
    for p in range(2, 5):
        res = del_residual(system, path, mult, p)
        h = 1e-6 * max(1.0, abs(nodes[p, 0]))
        up = nodes.copy()
        dn = nodes.copy()
        up[p, 0] += h
        dn[p, 0] -= h
        fd = (
            discrete_action(system, DiscretePath(up), mult)
            - discrete_action(system, DiscretePath(dn), mult)
        ) / (2.0 * h)
        assert abs(res[0] - fd) / (1.0 + abs(fd)) < 1e-6


def test_constraint_residual_sphere():
    system = sphere_spline_system(1.0, 0.1)
    path = DiscretePath(np.vstack([np.eye(3), np.eye(3)[:2]]))
    for i in range(3):
        np.testing.assert_allclose(constraint_residual(system, path, i), 0.0, atol=1e-14)
    bumped = np.vstack([[[2.0, 0.0, 0.0]], np.eye(3), [[0.0, 0.0, 1.0]]])
    np.testing.assert_allclose(
        constraint_residual(system, DiscretePath(bumped), 0), [3.0], atol=1e-14
    )


def test_constraint_residual_unconstrained_empty():
    system = free_particle()
    path = DiscretePath(np.arange(4.0))
    assert constraint_residual(system, path, 0).shape == (0,)


def test_boundary_data_validation():
    with pytest.raises(DimensionError):
        BoundaryData(np.zeros((2, 1)), np.zeros((2, 1)), 4)  # N = 2k
    with pytest.raises(DimensionError):
        BoundaryData(np.zeros((2, 1)), np.zeros((1, 1)), 8)
    for N in (10.0, True, "10"):
        with pytest.raises(DimensionError, match="not an integer"):
            BoundaryData(np.zeros((2, 1)), np.ones((2, 1)), N)


@pytest.mark.parametrize(
    "index", [4.7, 4.0, True, np.True_, "4"], ids=["4.7", "4.0", "True", "np.True_", "'4'"]
)
def test_boundary_data_rejects_non_integer_pin_index(index):
    head, tail, point = np.zeros((2, 1)), np.ones((2, 1)), np.array([0.5])
    with pytest.raises(DimensionError, match="not an integer"):
        BoundaryData(head, tail, 8, {index: point})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["head", "tail", "pin"])
def test_boundary_data_rejects_non_finite_entries(where, bad):
    blocks = {"head": np.zeros((2, 1)), "tail": np.ones((2, 1)), "pin": np.array([0.5])}
    blocks[where].flat[-1] = bad
    with pytest.raises(DimensionError, match="non-finite"):
        BoundaryData(blocks["head"], blocks["tail"], 8, {4: blocks["pin"]})


def test_boundary_data_accepts_numpy_integer_pin_index():
    head, tail, point = np.zeros((2, 1)), np.ones((2, 1)), np.array([0.5])
    boundary = BoundaryData(head, tail, 8, {np.int64(4): point})
    assert list(boundary.pins) == [4]
    assert type(next(iter(boundary.pins))) is int


def test_solve_bvp_cubic_exactness():
    system = second_difference_system(h=1.0)
    cubic = lambda t: 2.0 - t + 0.5 * t ** 3
    N = 6
    samples = np.array([cubic(float(j)) for j in range(N + 1)])[:, None]
    boundary = BoundaryData(samples[:2], samples[-2:], N)
    path, mult, report = solve_bvp(system, boundary)
    assert report.converged
    assert report.final_residual_norm < 1e-12
    np.testing.assert_allclose(path.nodes, samples, atol=1e-10)


def test_solve_bvp_guess_independence():
    system = second_difference_system(h=1.0)
    samples = np.array([float(j ** 3 - 2 * j) for j in range(7)])[:, None]
    boundary = BoundaryData(samples[:2], samples[-2:], 6)
    path_a, _, _ = solve_bvp(system, boundary)
    wiggle = samples + 3.0 * np.sin(np.arange(7.0))[:, None]
    path_b, _, _ = solve_bvp(system, boundary, guess_path=DiscretePath(wiggle))
    np.testing.assert_allclose(path_a.nodes, path_b.nodes, atol=1e-9)


def test_solve_bvp_sphere_constant_boundary():
    system = sphere_spline_system(1.0, 0.1)
    p = np.array([0.0, 0.6, 0.8])
    boundary = BoundaryData(np.tile(p, (2, 1)), np.tile(p, (2, 1)), 8)
    path, mult, report = solve_bvp(system, boundary)
    assert report.converged
    np.testing.assert_allclose(path.nodes, np.tile(p, (9, 1)), atol=1e-10)
    np.testing.assert_allclose(mult.lambdas, 0.0, atol=1e-10)


def test_solve_bvp_sphere_stationarity_oracle():
    # oracle: the returned point is a stationary point of the augmented
    # action in all interior coordinates and multipliers
    system = sphere_spline_system(1.0, 0.1)
    N = 8
    nodes = circle_nodes(range(N + 1))
    boundary = BoundaryData(nodes[:2], nodes[-2:], N)
    path, mult, report = solve_bvp(system, boundary)
    assert report.converged

    base_nodes = path.nodes.copy()
    base_lams = mult.lambdas.copy()

    def action(qflat, lflat):
        full = base_nodes.copy()
        full[2:7] = qflat.reshape(5, 3)
        return discrete_action(
            system, DiscretePath(full), MultiplierSequence(lflat.reshape(7, 1))
        )

    q0 = base_nodes[2:7].ravel()
    l0 = base_lams.ravel()
    worst = 0.0
    for a in range(q0.size):
        h = 1e-6
        up, dn = q0.copy(), q0.copy()
        up[a] += h
        dn[a] -= h
        worst = max(worst, abs(action(up, l0) - action(dn, l0)) / (2 * h))
    for a in range(l0.size):
        h = 1e-6
        up, dn = l0.copy(), l0.copy()
        up[a] += h
        dn[a] -= h
        worst = max(worst, abs(action(q0, up) - action(q0, dn)) / (2 * h))
    assert worst < 1e-6


def count_jacobians(monkeypatch):
    """Count the Newton Jacobians built while a test runs."""
    calls = []

    def counted(residual, x, *args):
        calls.append(x.size)
        return fd_jacobian(residual, x, *args)

    fd_jacobian = delsolve._fd_jacobian
    monkeypatch.setattr(delsolve, "_fd_jacobian", counted)
    return calls


def test_solve_bvp_builds_one_jacobian_per_iteration(monkeypatch):
    calls = count_jacobians(monkeypatch)
    system = sphere_spline_system(1.0, 0.1)
    nodes = circle_nodes(range(9), theta=0.15)
    _, _, report = solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], 8))
    assert report.converged
    assert report.iterations > 0
    assert len(calls) == report.iterations


def dense_checked_jacobians(monkeypatch):
    """Check every Newton Jacobian built while a test runs against the dense build.

    The colored build from solve_masked's pattern must equal the
    column-by-column one bit for bit.  Returns the unknown counts built.
    """
    sizes = []

    def checked(residual, x, pattern=None, groups=None):
        assert pattern is not None and pattern.shape == (x.size, x.size)
        colored = fd_jacobian(residual, x, pattern, groups)
        assert np.array_equal(colored, fd_jacobian(residual, x))
        sizes.append(x.size)
        return colored

    fd_jacobian = delsolve._fd_jacobian
    monkeypatch.setattr(delsolve, "_fd_jacobian", checked)
    return sizes


@pytest.mark.parametrize("pins", [{}, {5: circle_nodes([5], theta=0.15)[0]}])
def test_colored_jacobian_equals_dense_sphere(monkeypatch, pins):
    sizes = dense_checked_jacobians(monkeypatch)
    nodes = circle_nodes(range(11), theta=0.15)
    boundary = BoundaryData(nodes[:2], nodes[-2:], 10, pins)
    _, _, report = solve_bvp(sphere_spline_system(1.0, 0.1), boundary)
    assert report.converged
    assert len(sizes) == report.iterations > 0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_colored_jacobian_equals_dense_polynomial(monkeypatch, k, m):
    sizes = dense_checked_jacobians(monkeypatch)
    system = polynomial_system(k, 2, m, seed=10 * k + m, degree=4)
    rng = np.random.default_rng(k + m)
    boundary = BoundaryData(rng.normal(size=(k, 2)), rng.normal(size=(k, 2)), 2 * k + 3)
    try:
        solve_bvp(system, boundary, max_iter=3)
    except (NonConvergenceError, RegularityError):
        pass
    assert sizes


def test_colored_jacobian_equals_dense_free_time_beam(monkeypatch):
    # The warm stage holds the time column fixed; the full stage frees it.
    sizes = dense_checked_jacobians(monkeypatch)
    system = beam_system(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0, lambda t: 0.0)
    q = lambda t: 0.01 * t * t + 0.005 * t
    head = TimedPath([0.0, 1.0], [q(0.0), q(1.0)])
    tail = TimedPath([9.0, 10.0], [q(9.0) + 0.01, q(10.0)])
    _, report = solve_free_times(system, head, tail, 10, tol=1e-9)
    assert report.converged
    assert sorted(set(sizes)) == [7, 14]


def test_colored_jacobian_equals_dense_ocp(monkeypatch):
    sizes = dense_checked_jacobians(monkeypatch)
    _, _, report = solve_ocp(*desk_ocp(), tol=1e-10)
    assert report.converged
    assert len(sizes) == report.iterations > 0


class _FirstBuildDone(Exception):
    pass


def test_colored_jacobian_evaluations_do_not_grow_with_N(monkeypatch):
    evals = []

    def first_build(residual, x, pattern=None, groups=None):
        count = []

        def counted(y):
            count.append(1)
            return residual(y)

        fd_jacobian(counted, x, pattern, groups)
        evals.append((len(count), x.size))
        raise _FirstBuildDone

    fd_jacobian = delsolve._fd_jacobian
    monkeypatch.setattr(delsolve, "_fd_jacobian", first_build)
    for N in (20, 40, 80):
        nodes = circle_nodes(range(N + 1), theta=1.2 / N)
        with pytest.raises(_FirstBuildDone):
            solve_bvp(sphere_spline_system(1.0, 0.1), BoundaryData(nodes[:2], nodes[-2:], N))
    counts = [c for c, _ in evals]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0] < 2 * evals[0][1]


def test_solve_bvp_colors_the_pattern_once(monkeypatch):
    colorings = []

    def counted(pattern):
        colorings.append(pattern.shape)
        return column_groups(pattern)

    column_groups = derivatives._column_groups
    # Counted in both modules, wherever the solver looks the coloring up.
    monkeypatch.setattr(derivatives, "_column_groups", counted)
    monkeypatch.setattr(delsolve, "_column_groups", counted, raising=False)
    nodes = circle_nodes(range(21), theta=0.06)
    boundary = BoundaryData(nodes[:2], nodes[-2:], 20)
    _, _, report = solve_bvp(sphere_spline_system(1.0, 0.1), boundary)
    assert report.converged
    assert report.iterations > 1
    assert len(colorings) == 1


def test_solve_bvp_rejects_fixed_nodes_off_a_constraint_before_newton(monkeypatch):
    # The sphere constraint of windows 0 and 1 reads only the head nodes.
    calls = count_jacobians(monkeypatch)
    system = sphere_spline_system(1.0, 0.1)
    nodes = circle_nodes(range(9), theta=0.15)
    head = nodes[:2].copy()
    head[1] *= 1.0 + 1e-5
    with pytest.raises(DimensionError, match="window 1"):
        solve_bvp(system, BoundaryData(head, nodes[-2:], 8))
    assert calls == []


def antipodal_boundary(N, a=0.3):
    head = [(np.cos(-a), np.sin(-a), 0.0), (1.0, 0.0, 0.0)]
    tail = [(-1.0, 0.0, 0.0), (np.cos(np.pi + a), np.sin(np.pi + a), 0.0)]
    return BoundaryData(head, tail, N)


def test_constraint_reads_at_a_vanishing_gradient():
    # The sphere constraint's gradient 2q vanishes at the origin; it still
    # reads factor 1 there, and only factor 1.
    reads = delsolve._constraint_reads(sphere_spline_system(1.0, 0.1), np.zeros((3, 3)))
    assert np.array_equal(reads, [[[True] * 3, [False] * 3, [False] * 3]])


def test_solve_bvp_unknown_node_at_a_vanishing_constraint_gradient():
    # Between antipodal points the linear guess puts node 5 at the origin.
    # Node 5 is an unknown, so its constraint enters the Newton system
    # (singular there) instead of being checked as fixed data.
    system = sphere_spline_system(1.0, 0.1)
    nodes0, _ = delsolve.initial_guess(antipodal_boundary(10))
    assert not nodes0[5].any()
    with pytest.raises(RegularityError, match="singular Newton Jacobian"):
        solve_bvp(system, antipodal_boundary(10))
    _, _, report = solve_bvp(system, antipodal_boundary(11))
    assert report.converged


def test_solve_bvp_pin_read_by_unknown_windows():
    # Every window through the pinned node also holds an unknown node, so
    # the pin is not checked on its own and the solve reproduces the path.
    system = polynomial_system(1, 2, 1, seed=2)
    head, tail = [[0.1, 0.0]], [[0.3, 0.2]]
    free, _, report = solve_bvp(system, BoundaryData(head, tail, 6))
    assert report.converged
    pinned, _, report = solve_bvp(
        system, BoundaryData(head, tail, 6, {3: free.nodes[3]})
    )
    assert report.converged
    np.testing.assert_array_equal(pinned.nodes[3], free.nodes[3])
    np.testing.assert_allclose(pinned.nodes, free.nodes, rtol=0, atol=1e-10)


def test_constraint_gradients_match_partials():
    for k, n, m in ((1, 2, 1), (2, 1, 2), (3, 2, 2)):
        system = polynomial_system(k, n, m, seed=k + m, degree=4)
        window = np.random.default_rng(k).normal(size=(k + 1, n))
        grads = constraint_gradients(system, window)
        assert grads.shape == (m, k + 1, n)
        for alpha, phi in enumerate(system.constraints):
            for j in range(1, k + 2):
                np.testing.assert_array_equal(grads[alpha, j - 1], partial(phi, j, window))
    unconstrained = second_difference_system(h=1.0, n=2)
    assert constraint_gradients(unconstrained, np.ones((3, 2))).shape == (0, 3, 2)


def test_newton_residual_history_decreases():
    system = sphere_spline_system(1.0, 0.1)
    nodes = circle_nodes(range(9))
    boundary = BoundaryData(nodes[:2], nodes[-2:], 8)
    _, _, report = solve_bvp(system, boundary)
    hist = report.residual_history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_newton_nonconvergence_carries_iterate():
    system = second_difference_system(h=1.0)
    samples = np.array([float(j ** 3) for j in range(7)])[:, None]
    boundary = BoundaryData(samples[:2], samples[-2:], 6)
    with pytest.raises(NonConvergenceError) as err:
        solve_bvp(system, boundary, tol=1e-18, max_iter=1)
    path, mult = err.value.last_iterate
    assert path.nodes.shape == (7, 1)
    assert err.value.report.iterations == 1


def test_newton_rejects_every_worse_trial():
    # f(x) = 1 + x + 3|x| has its minimum 1 at the kink x = 0, where the
    # central-difference slope is 1: every trial along -1 at every damping
    # level raises the residual, so the solve stops at x0.
    def residual(x):
        return np.array([1.0 + x[0] + 3.0 * abs(x[0])])

    with pytest.raises(NonConvergenceError, match="line search") as err:
        newton_solve(residual, np.array([0.0]))
    assert "1.000e+00" in str(err.value)
    np.testing.assert_array_equal(err.value.last_iterate, [0.0])
    assert err.value.report.residual_history == [1.0]
    assert err.value.report.iterations == 0
    assert err.value.report.jacobian_condition_estimate == pytest.approx(1.0)


def test_node_gradient_splits_into_theta_plus_and_minus():
    # At node p the DEL residual is theta_plus of the state starting at
    # node p-k (block k) minus theta_minus of the state starting at p.
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            for seed in range(3):
                n, N = 2, 4 * k
                system = polynomial_system(k, n, m, seed, degree=4)
                rng = np.random.default_rng([k, m, seed])
                nodes = rng.normal(size=(N + 1, n))
                lams = rng.normal(size=(N - k + 1, m))
                path, mult = DiscretePath(nodes), MultiplierSequence(lams)
                for p in range(k, N - 2 * k + 2):
                    before = StepState(nodes[p - k : p + k], lams[p - k : p])
                    after = StepState(nodes[p : p + 2 * k], lams[p : p + k])
                    split = (
                        theta_plus(system, before).reshape(2 * k, n)[k]
                        - theta_minus(system, after).reshape(2 * k, n)[0]
                    )
                    res = del_residual(system, path, mult, p)
                    scale = np.abs(res).max()
                    np.testing.assert_allclose(split, res, rtol=0, atol=1e-12 * scale)


def test_step_continues_cubic():
    system = second_difference_system(h=1.0)
    state = StepState(
        np.array([float(j ** 3) for j in range(4)])[:, None], np.zeros((2, 0))
    )
    nxt, report = step(system, state)
    assert report.converged
    assert nxt.configs[-1, 0] == pytest.approx(64.0, abs=1e-10)


def test_step_rejects_singular_equations_solved_by_the_guess():
    # The zero Lagrangian's step equations vanish for every new node, so
    # the guess meets tol at iteration 0; they still define no map.
    zero = ConstrainedSystem(2, 1, WindowFunction(2, 1, lambda w: 0.0), ())
    state = StepState(np.arange(4.0)[:, None], np.zeros((2, 0)))
    with pytest.raises(RegularityError, match="singular Newton Jacobian at the guess") as err:
        step(zero, state)
    assert err.value.condition == np.inf


def test_solve_bvp_rejects_singular_equations_solved_by_the_guess():
    # As for step: the linear guess meets tol, but the zero Lagrangian's
    # DEL equations determine no interior node.
    zero = lambda w: np.zeros(1)
    system = ConstrainedSystem(2, 1, WindowFunction(2, 1, lambda w: 0.0, (zero, zero, zero)))
    with pytest.raises(RegularityError, match="singular Newton Jacobian at the guess") as err:
        solve_bvp(system, BoundaryData([[0.0], [1.0]], [[5.0], [6.0]], 8))
    assert err.value.condition == np.inf


def test_step_accepts_regular_equations_solved_by_the_guess():
    # A straight line continues exactly along the extrapolated guess.
    state = StepState(np.arange(4.0)[:, None], np.zeros((2, 0)))
    nxt, report = step(second_difference_system(h=1.0), state)
    assert report.iterations == 0
    assert np.isfinite(report.jacobian_condition_estimate)
    assert nxt.configs[-1, 0] == 4.0


def test_step_matches_bvp():
    system = sphere_spline_system(1.0, 0.1)
    N = 8
    nodes = circle_nodes(range(N + 1))
    boundary = BoundaryData(nodes[:2], nodes[-2:], N)
    path, mult, _ = solve_bvp(system, boundary)
    state = StepState(path.nodes[:4], mult.lambdas[:2])
    for i in range(5):
        state, report = step(system, state)
        assert report.converged
        np.testing.assert_allclose(
            state.configs[-1], path.nodes[4 + i], atol=1e-8
        )
        np.testing.assert_allclose(
            state.multipliers[-1], mult.lambdas[2 + i], atol=1e-8
        )


def test_step_regularity_error_on_interior_constraint():
    # a constraint blind to the first and last window factors leaves the
    # new multiplier out of every equation: singular by construction
    base = second_difference_system(h=1.0)
    phi = WindowFunction(2, 1, lambda w: w[1, 0] ** 2 - 1.0)
    system = ConstrainedSystem(2, 1, base.lagrangian, (phi,))
    state = StepState(
        np.array([[1.0], [1.1], [0.9], [1.05]]), np.array([[0.3], [-0.2]])
    )
    with pytest.raises(RegularityError) as err:
        step(system, state)
    assert err.value.condition is not None


def test_step_regularity_error_on_constraint_reading_no_factor():
    base = second_difference_system(h=1.0)
    zero = lambda w: np.zeros(1)
    phi = WindowFunction(2, 1, lambda w: 0.0, (zero, zero, zero))
    system = ConstrainedSystem(2, 1, base.lagrangian, (phi,))
    state = StepState(np.array([[1.0], [1.1], [0.9], [1.05]]), np.zeros((2, 1)))
    with pytest.raises(RegularityError, match="singular Newton Jacobian"):
        step(system, state)


def test_newton_solve_scalar_quadratic():
    x, report = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), np.array([3.0]))
    assert report.converged
    assert x[0] == pytest.approx(2.0, abs=1e-10)


class _Captured(Exception):
    pass


def masked_residual(monkeypatch, system, nodes0, q_mask):
    """A freshly built solve_masked residual and its starting point and pattern."""
    got = []

    def capture(residual, x0, tol, max_iter, pattern):
        got.append((residual, x0, pattern))
        raise _Captured

    monkeypatch.setattr(delsolve, "newton_solve", capture)
    with pytest.raises(_Captured):
        delsolve.solve_masked(system, nodes0, q_mask)
    return got[0]


def sphere_masked():
    nodes = circle_nodes(range(9), theta=0.15)
    boundary = BoundaryData(nodes[:2], nodes[-2:], 8)
    return (sphere_spline_system(1.0, 0.1), *delsolve.initial_guess(boundary))


def pinned_polynomial_masked():
    rng = np.random.default_rng(3)
    ends = rng.normal(size=(2, 3, 2))
    boundary = BoundaryData(ends[0], ends[1], 10, {5: rng.normal(size=2)})
    return (polynomial_system(3, 2, 1, seed=7, degree=4), *delsolve.initial_guess(boundary))


def ocp_masked():
    # solve_ocp's unknowns: the time column stays fixed.
    spec, times, head, tail = desk_ocp()
    times = times[:7]
    N = len(times) - 1
    nodes0, q_mask = delsolve.initial_guess(BoundaryData(head, tail, N))
    nodes0 = TimedPath(times, nodes0).extended_nodes()
    q_mask = np.column_stack([np.zeros(N + 1, dtype=bool), q_mask])
    return underactuated_to_constrained(spec), nodes0, q_mask


@pytest.mark.parametrize(
    "case", [sphere_masked, pinned_polynomial_masked, ocp_masked], ids=["sphere", "pinned-k3", "ocp"]
)
def test_memoized_residual_equals_fresh_evaluation(monkeypatch, case):
    system, nodes0, q_mask = case()
    residual, x0, pattern = masked_residual(monkeypatch, system, nodes0, q_mask)
    rng = np.random.default_rng(1)
    h = 1e-7 * np.maximum(1.0, np.abs(x0))
    points = [x0, x0 + 1e-3 * rng.normal(size=x0.size), x0 + 1e-3 * rng.normal(size=x0.size)]
    for group in derivatives._column_groups(pattern)[:4]:
        for sign in (1.0, -1.0):
            x = x0.copy()
            x[group] += sign * h[group]
            points.append(x)
    points.append(x0)
    for x in points:
        fresh = masked_residual(monkeypatch, system, nodes0, q_mask)[0]
        assert np.array_equal(residual(x), fresh(x))
    # Every window moves, and a partial on the last unknown node raises
    # after the earlier windows are evaluated; the base point then must
    # not see any of their terms.
    bad = x0 + 1e-3 * rng.normal(size=x0.size)
    bad[int(q_mask.sum()) - 1] = np.nan
    with pytest.raises(NumericError):
        residual(bad)
    fresh = masked_residual(monkeypatch, system, nodes0, q_mask)[0]
    assert np.array_equal(residual(x0), fresh(x0))


def counted_partials(f, calls):
    """f with each analytic partial call appended to calls."""

    def counted(g):
        def partial_j(w):
            calls.append(1)
            return g(w)

        return partial_j

    return WindowFunction(f.k, f.n, f.eval, tuple(counted(g) for g in f.partials))


def counted_sphere():
    sphere = sphere_spline_system(1.0, 0.1)
    lag_calls, con_calls = [], []
    system = ConstrainedSystem(
        sphere.k,
        sphere.n,
        counted_partials(sphere.lagrangian, lag_calls),
        tuple(counted_partials(phi, con_calls) for phi in sphere.constraints),
    )
    return system, lag_calls, con_calls


def test_bvp_reevaluates_only_moved_windows():
    # 7,599 Lagrangian partial calls when every residual evaluates every window.
    system, lag_calls, _ = counted_sphere()
    nodes = circle_nodes(range(21), theta=1.2 / 20)
    _, _, report = solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], 20))
    assert report.converged
    assert len(lag_calls) <= 4100


def test_step_residual_reevaluates_only_the_last_window():
    system, lag_calls, con_calls = counted_sphere()
    state = StepState(circle_nodes(range(4), theta=0.05), np.zeros((2, 1)))
    equations, x0 = delsolve._step_equations(system, state)
    z = state.flatten()
    equations(z, x0)
    del lag_calls[:], con_calls[:]
    x = x0.copy()
    x[0] += 1e-7
    equations(z, x)
    assert (len(lag_calls), len(con_calls)) == (1, 1)
