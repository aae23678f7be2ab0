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
from hovi.delsolve import (
    BoundaryData,
    StepState,
    constraint_residual,
    del_residual,
    newton_solve,
    regularity_matrix,
    solve_bvp,
    step,
)
from hovi.errors import DimensionError, NonConvergenceError, RegularityError
from hovi.applications import sphere_spline_system
from hovi.geometry import theta_minus, theta_plus

from util_systems import free_particle, second_difference_system


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


def test_regularity_matrix_free_particle():
    system = free_particle(h=1.0)
    mat = regularity_matrix(system, np.array([[0.0], [1.0]]), np.zeros(0))
    np.testing.assert_allclose(mat, [[-1.0]], atol=1e-4)


def test_regularity_matrix_bordered_zeros_singular():
    base = second_difference_system(h=1.0)
    phi = WindowFunction(2, 1, lambda w: w[1, 0] ** 2 - 1.0)
    system = ConstrainedSystem(2, 1, base.lagrangian, (phi,))
    mat = regularity_matrix(system, np.ones((3, 1)), np.array([0.5]))
    assert abs(np.linalg.det(mat)) < 1e-8


def test_regularity_matrix_sphere_hand_assembly():
    system = sphere_spline_system(1.0, 0.5)
    q = np.array([0.6, 0.0, 0.8])
    mat = regularity_matrix(system, np.tile(q, (3, 1)), np.zeros(1))
    np.testing.assert_allclose(mat[:3, :3], np.eye(3) / 0.5 ** 3, atol=1e-4)
    np.testing.assert_allclose(mat[:3, 3], 0.0, atol=1e-8)
    np.testing.assert_allclose(mat[3, :3], 2.0 * q, atol=1e-8)
    assert mat[3, 3] == 0.0


def test_newton_solve_scalar_quadratic():
    x, report = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), np.array([3.0]))
    assert report.converged
    assert x[0] == pytest.approx(2.0, abs=1e-10)
