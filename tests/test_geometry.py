import numpy as np
import pytest

from hovi import delsolve, geometry
from hovi.core import ConstrainedSystem, WindowFunction
from hovi.delsolve import StepState, step
from hovi.derivatives import central_difference
from hovi.errors import DimensionError, RegularityError
from hovi.geometry import (
    GroupAction,
    check_momentum_conservation,
    check_symplecticity,
    momentum,
    omega_matrix,
    rotation_action,
    theta_minus,
    theta_plus,
    translation_action,
)
from hovi.applications import great_circle_state, sphere_spline_system

from util_systems import free_particle, second_difference_system


def zero_system(k=2, n=1):
    return ConstrainedSystem(k, n, WindowFunction(k, n, lambda w: 0.0), ())


def test_theta_free_particle_hand_values():
    system = free_particle(h=1.0)
    point = StepState(np.array([[0.0], [1.0]]), np.zeros((1, 0)))
    np.testing.assert_allclose(theta_minus(system, point), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(theta_plus(system, point), [0.0, 1.0], atol=1e-12)


def test_theta_zero_lagrangian():
    system = zero_system()
    point = StepState(np.arange(4.0)[:, None], np.zeros((2, 0)))
    np.testing.assert_allclose(theta_minus(system, point), 0.0)
    np.testing.assert_allclose(theta_plus(system, point), 0.0)


def test_theta_constant_sphere_window_vanishes():
    system = sphere_spline_system(1.0, 0.2)
    p = np.array([1.0, 0.0, 0.0])
    point = StepState(np.tile(p, (4, 1)), np.zeros((2, 1)))
    np.testing.assert_allclose(theta_minus(system, point), 0.0, atol=1e-12)
    np.testing.assert_allclose(theta_plus(system, point), 0.0, atol=1e-12)


def test_theta_difference_is_window_sum_differential():
    # theta_plus - theta_minus equals d(sum of the first k augmented
    # window values) in the configuration coordinates
    system = sphere_spline_system(1.0, 0.3)
    rng = np.random.default_rng(13)
    configs = rng.normal(size=(4, 3))
    lams = rng.normal(size=(2, 1))
    point = StepState(configs, lams)
    diff = theta_plus(system, point) - theta_minus(system, point)

    def window_sum(flat):
        c = flat.reshape(4, 3)
        total = 0.0
        for i in range(2):
            w = c[i : i + 3]
            total += system.lagrangian.value(w)
            total += lams[i, 0] * system.constraints[0].value(w)
        return total

    z0 = configs.ravel()
    fd = np.empty(z0.size)
    for a in range(z0.size):
        h = 1e-6 * max(1.0, abs(z0[a]))
        up, dn = z0.copy(), z0.copy()
        up[a] += h
        dn[a] -= h
        fd[a] = (window_sum(up) - window_sum(dn)) / (2.0 * h)
    np.testing.assert_allclose(diff, fd, atol=1e-6)


def test_omega_free_particle():
    h = 2.0
    system = free_particle(h=h)
    point = StepState(np.array([[0.3], [1.7]]), np.zeros((1, 0)))
    expected = np.array([[0.0, 1.0 / h], [-1.0 / h, 0.0]])
    np.testing.assert_allclose(omega_matrix(system, point), expected, atol=1e-6)


def test_omega_zero_lagrangian_and_antisymmetry():
    system = zero_system()
    point = StepState(np.arange(4.0)[:, None], np.zeros((2, 0)))
    np.testing.assert_allclose(omega_matrix(system, point), 0.0, atol=1e-12)

    rng = np.random.default_rng(21)
    sd = second_difference_system(h=0.8)
    point = StepState(rng.normal(size=(4, 1)), np.zeros((2, 0)))
    om = omega_matrix(sd, point)
    np.testing.assert_array_equal(om + om.T, np.zeros_like(om))


def test_omega_from_minus_and_plus_agree():
    rng = np.random.default_rng(2)
    sd = second_difference_system(h=0.8)
    point = StepState(rng.normal(size=(4, 1)), np.zeros((2, 0)))
    om_minus = omega_matrix(sd, point, which="minus")
    om_plus = omega_matrix(sd, point, which="plus")
    np.testing.assert_allclose(om_minus, om_plus, atol=1e-5)


def k1_state(q0, q1):
    return StepState(np.array([q0, q1], dtype=float), np.zeros((1, 0)))


def test_legendre_transforms():
    # At k = 1, m = 0 the one-forms are the discrete Legendre transforms:
    # theta_minus = (p0, 0) with p0 = -D_1 L, theta_plus = (0, p1), p1 = D_2 L.
    system = free_particle(h=1.0)
    th_minus = theta_minus(system, k1_state([0.0], [1.0]))
    th_plus = theta_plus(system, k1_state([0.0], [1.0]))
    np.testing.assert_allclose(th_minus[:1], [1.0], atol=1e-12)
    np.testing.assert_allclose(th_plus[1:], [1.0], atol=1e-12)

    zs = ConstrainedSystem(1, 1, WindowFunction(1, 1, lambda w: 0.0), ())
    pz = theta_minus(zs, k1_state([0.4], [0.9]))[:1]
    np.testing.assert_allclose(pz, [0.0], atol=1e-9)


def test_legendre_momentum_matching_on_solution():
    # along a DEL solution, the plus momentum of one window equals the
    # minus momentum of the next
    system = free_particle(h=0.5)
    path = (0.3 + 1.2 * np.arange(5.0))[:, None]
    for j in range(1, 4):
        p_plus = theta_plus(system, k1_state(path[j - 1], path[j]))[1:]
        p_minus = theta_minus(system, k1_state(path[j], path[j + 1]))[:1]
        np.testing.assert_allclose(p_plus, p_minus, atol=1e-12)


def test_momentum_trivial_cases():
    system = sphere_spline_system(1.0, 0.2)
    p = np.array([0.0, 1.0, 0.0])
    point = StepState(np.tile(p, (4, 1)), np.zeros((2, 1)))
    np.testing.assert_allclose(
        momentum(system, rotation_action(), point), 0.0, atol=1e-12
    )

    zs = zero_system(k=1, n=2)
    zp = StepState(np.ones((2, 2)), np.zeros((1, 0)))
    np.testing.assert_allclose(
        momentum(zs, translation_action(2), zp), 0.0, atol=1e-12
    )
    with pytest.raises(DimensionError):
        momentum(zs, translation_action(2), zp, side="sideways")
    with pytest.raises(DimensionError):
        omega_matrix(zs, zp, which="sideways")


def test_momentum_plus_equals_minus_for_invariant_system():
    system = sphere_spline_system(1.0, 0.1)
    state = great_circle_state(1.0, 0.1)
    jp = momentum(system, rotation_action(), state, side="plus")
    jm = momentum(system, rotation_action(), state, side="minus")
    np.testing.assert_allclose(jp, jm, atol=1e-8)


def test_momentum_conservation_translation():
    system = free_particle(h=1.0)
    state = StepState(np.array([[0.0], [0.7]]), np.zeros((1, 0)))
    traj = [state]
    for _ in range(3):
        nxt, _ = step(system, traj[-1])
        traj.append(nxt)
    drift = check_momentum_conservation(system, translation_action(1), traj)
    assert drift < 1e-12


def test_symplecticity_free_particle():
    system = free_particle(h=1.0)
    state = StepState(np.array([[0.0], [1.0]]), np.zeros((1, 0)))
    report = check_symplecticity(system, state)
    assert not report.restricted
    assert report.defect_norm < 1e-8


def test_check_symplecticity_runs_one_step(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(geometry, "step", counted)
    system = sphere_spline_system(1.0, 0.1)
    check_symplecticity(system, great_circle_state(1.0, 0.1))
    assert len(calls) == 1


def test_check_symplecticity_builds_the_step_equations_twice(monkeypatch):
    # Once in step, once in _step_map_jacobian: the differenced states
    # reuse the read structure fixed at the state.
    builds, probes = [], []

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    build = counted(builds, delsolve._step_equations)
    monkeypatch.setattr(delsolve, "_step_equations", build)
    monkeypatch.setattr(geometry, "_step_equations", build)
    monkeypatch.setattr(delsolve, "_constraint_reads", counted(probes, delsolve._constraint_reads))
    check_symplecticity(sphere_spline_system(1.0, 0.1), great_circle_state(1.0, 0.1))
    assert (len(builds), len(probes)) == (2, 2)


def test_check_symplecticity_singular_step_equations():
    # The zero Lagrangian's step equations vanish for every new node: the
    # guess solves them without a Newton iteration, but they define no map.
    state = StepState(np.arange(4.0)[:, None], np.zeros((2, 0)))
    with pytest.raises(RegularityError, match="singular Newton Jacobian at the guess"):
        check_symplecticity(zero_system(), state)


def test_step_map_jacobian_singular_at_the_solved_point():
    # With the new node at the origin the sphere constraint's row 2q of the
    # step equations' Jacobian is zero.
    system = sphere_spline_system(1.0, 0.1)
    state = great_circle_state(1.0, 0.1)
    image, _ = step(system, state)
    configs = image.configs.copy()
    configs[-1] = 0.0
    bad = StepState(configs, image.multipliers)
    with pytest.raises(RegularityError, match="step equations at the solved point") as err:
        geometry._step_map_jacobian(system, state, bad)
    assert err.value.condition == np.inf


def reference_step_map_jacobian(system, state):
    """The step map differenced directly, each value a Newton solve (step 1e-5)."""
    k, n, m = system.k, system.n, system.m

    def step_map(z):
        nxt, _ = step(system, StepState.unflatten(z, k, n, m), tol=1e-12)
        return nxt.flatten()

    return central_difference(step_map, state.flatten(), 1e-5)


@pytest.mark.parametrize(
    "system, state",
    [
        (sphere_spline_system(1.0, 0.1), great_circle_state(1.0, 0.1)),
        (sphere_spline_system(1.0, 0.2), great_circle_state(1.0, 0.2)),
        (
            second_difference_system(h=0.7, n=2),
            StepState(np.random.default_rng(5).normal(size=(4, 2)), np.zeros((2, 0))),
        ),
    ],
    ids=["sphere-h0.1", "sphere-h0.2", "second-difference-n2"],
)
def test_step_map_jacobian_matches_differenced_step(system, state):
    next_state, _ = step(system, state, tol=1e-12)
    jac = geometry._step_map_jacobian(system, state, next_state)
    ref = reference_step_map_jacobian(system, state)
    assert np.max(np.abs(jac - ref)) <= 1e-8 * np.max(np.abs(jac))


def test_sphere_restricted_defect_at_small_step():
    system = sphere_spline_system(1.0, 0.05)
    states = [great_circle_state(1.0, 0.05)]
    for _ in range(20):
        states.append(step(system, states[-1])[0])
    for i in (0, 10, 20):
        report = check_symplecticity(system, states[i])
        assert report.restricted
        assert report.defect_norm < 1e-5, (i, report.defect_norm)


def norm_preserving_system(h=0.1):
    """k=1, n=2 oscillator whose constraint |q_1|^2 - |q_0|^2 reads both nodes."""

    def lag(w):
        d = w[1] - w[0]
        return float(d @ d) / (2.0 * h) - h * float(w[0] @ w[0]) / 2.0

    lagrangian = WindowFunction(
        1, 2, lag, (lambda w: (w[0] - w[1]) / h - h * w[0], lambda w: (w[1] - w[0]) / h)
    )
    phi = WindowFunction(
        1,
        2,
        lambda w: float(w[1] @ w[1] - w[0] @ w[0]),
        (lambda w: -2.0 * w[0], lambda w: 2.0 * w[1]),
    )
    return ConstrainedSystem(1, 2, lagrangian, (phi,))


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_symplecticity_under_a_constraint_reading_two_nodes(lam):
    system = norm_preserving_system()
    configs = np.array([[1.0, 0.0], [np.cos(0.1), np.sin(0.1)]])
    states = [StepState(configs, [[lam]])]
    for _ in range(20):
        states.append(step(system, states[-1])[0])
    for state in (states[0], states[-1]):
        report = check_symplecticity(system, state)
        assert report.restricted
        assert report.defect_norm < 1e-8
    norms = np.linalg.norm([st.configs for st in states], axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_unconstrained_defect_is_the_full_space_formula():
    # Without constraints the kernel basis is numpy's SVD of a (0, dim)
    # matrix, the identity, and the projected defect is the plain one.
    system = second_difference_system(h=0.7, n=2)
    state = StepState(np.random.default_rng(5).normal(size=(4, 2)), np.zeros((2, 0)))
    report = check_symplecticity(system, state)
    next_state, _ = step(system, state, tol=1e-12)
    jac = geometry._step_map_jacobian(system, state, next_state)
    omega_next = omega_matrix(system, next_state)
    defect = np.linalg.norm(jac.T @ omega_next @ jac - omega_matrix(system, state))
    assert not report.restricted
    assert report.defect_norm == float(defect)


def test_rotation_generators_equal_cross_products():
    generators = rotation_action().generators
    for q in np.random.default_rng(8).normal(size=(20, 3)):
        for a, e in enumerate(np.eye(3)):
            assert np.array_equal(generators[a](q), np.cross(e, q))


def test_group_action_shapes():
    act = rotation_action()
    assert act.dim == 3
    np.testing.assert_allclose(
        act.generators[2](np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0]
    )
    with pytest.raises(DimensionError):
        StepState(np.zeros((3, 1)), np.zeros((1, 0)))
