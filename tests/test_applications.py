import types

import numpy as np
import pytest

from hovi import applications
from hovi.core import DiscretePath, MultiplierSequence, discrete_action
from hovi.delsolve import BoundaryData, del_residual, node_gradient, solve_bvp
from hovi.derivatives import check_gradient, partial
from hovi.errors import DimensionError, NumericError
from hovi.applications import (
    UnderactuatedSpec,
    beam_system,
    coupled_quadratic_lagrangian,
    great_circle_state,
    recover_controls,
    solve_ocp,
    sphere_multiplier,
    sphere_spline_system,
    underactuated_to_constrained,
)
from hovi.timedep import extend, solve_fixed_step

from util_systems import desk_ocp


def circle(i, theta=0.3):
    return np.array([np.cos(i * theta), np.sin(i * theta), 0.0])


def test_sphere_system_gradients_and_hand_value():
    system = sphere_spline_system(1.0, 1.0)
    e1 = np.array([1.0, 0.0, 0.0])
    window = np.vstack([np.zeros(3), np.zeros(3), e1])
    np.testing.assert_allclose(
        partial(system.lagrangian, 1, window), e1, atol=1e-12
    )
    rng = np.random.default_rng(4)
    for _ in range(3):
        w = rng.normal(size=(3, 3))
        assert check_gradient(system.lagrangian, w) < 1e-6
        assert check_gradient(system.constraints[0], w) < 1e-6
    with pytest.raises(DimensionError):
        sphere_spline_system(-1.0, 0.1)


def test_sphere_constraint_reads_first_node():
    system = sphere_spline_system(2.0, 0.1)
    window = np.vstack([2.0 * np.eye(3)[0], np.zeros(3), np.zeros(3)])
    assert system.constraints[0].value(window) == pytest.approx(0.0, abs=1e-14)


def test_sphere_multiplier_trivial_and_hand_value():
    p = 3.0 * circle(5)
    const = np.tile(p, (5, 1))
    assert sphere_multiplier(const, 3.0, 0.2) == pytest.approx(0.0, abs=1e-12)

    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    window = np.vstack([e1, e1, e2, e1, e1])
    assert sphere_multiplier(window, 1.0, 1.0) == pytest.approx(-3.0, abs=1e-12)

    with pytest.raises(DimensionError):
        sphere_multiplier(np.zeros((4, 3)), 1.0, 1.0)


@pytest.mark.parametrize(
    "r, h", [(np.nan, 0.1), (1.0, np.inf), (0.0, 0.1), (1.0, 0.0)],
    ids=["r-nan", "h-inf", "r-zero", "h-zero"],
)
def test_sphere_radius_and_step_must_be_finite_and_positive(r, h):
    with pytest.raises(DimensionError, match="finite and positive"):
        sphere_spline_system(r, h)
    with pytest.raises(DimensionError, match="finite and positive"):
        sphere_multiplier(np.zeros((5, 3)), r, h)
    with pytest.raises(DimensionError, match="finite and positive"):
        great_circle_state(r, h)


def test_sphere_solution_matches_closed_form_multiplier():
    system = sphere_spline_system(1.0, 0.1)
    N = 8
    nodes = np.array([circle(i) for i in range(N + 1)])
    boundary = BoundaryData(nodes[:2], nodes[-2:], N)
    path, mult, report = solve_bvp(system, boundary)
    assert report.converged
    for p in range(2, N - 1):
        lam = sphere_multiplier(path.nodes[p - 2 : p + 3], 1.0, 0.1)
        assert mult.lambdas[p, 0] == pytest.approx(lam, abs=1e-8)


def test_interpolation_pin_validation():
    system = sphere_spline_system(1.0, 0.1)
    nodes = np.array([circle(i) for i in range(7)])
    with pytest.raises(DimensionError):
        solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], 6, {3: [2.0, 0.0, 0.0]}))
    with pytest.raises(DimensionError):
        solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], 6, {1: circle(1)}))


def test_interpolation_all_interior_pinned():
    system = sphere_spline_system(1.0, 0.1)
    nodes = np.array([circle(i) for i in range(7)])
    pins = {i: nodes[i] for i in range(2, 5)}
    path, mult, report = solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], 6, pins))
    assert report.converged
    assert report.iterations <= 1
    np.testing.assert_allclose(path.nodes, nodes, atol=1e-14)


def test_interpolation_through_pinned_point():
    system = sphere_spline_system(1.0, 0.1)
    N = 10
    nodes = np.array([circle(i, theta=0.15) for i in range(N + 1)])
    pin = np.array([0.0, 1.0, 0.0])
    path, mult, report = solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], N, {5: pin}))
    assert report.converged
    np.testing.assert_allclose(path.nodes[5], pin, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(path.nodes, axis=1), 1.0, atol=1e-10)


def test_interpolation_action_nonincreasing_without_pin():
    system = sphere_spline_system(1.0, 0.1)
    N = 8
    nodes = np.array([circle(i, theta=0.2) for i in range(N + 1)])
    pin = circle(4.0, theta=0.25)
    path_p, mult_p, _ = solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], N, {4: pin}))
    path_f, mult_f, _ = solve_bvp(system, BoundaryData(nodes[:2], nodes[-2:], N))
    a_pinned = discrete_action(system, path_p, mult_p)
    a_free = discrete_action(system, path_f, mult_f)
    assert a_free <= a_pinned + 1e-9


def test_beam_vanishing_stiffness_rejected():
    system = beam_system(lambda t: 0.0, lambda t: 0.0)
    with pytest.raises(NumericError):
        system.eval(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))


def test_beam_analytic_gradients():
    system = beam_system(
        lambda t: 1.0 + 0.2 * t,
        lambda t: 0.3 * t ** 2,
        dmu=lambda t: 0.2,
        drho=lambda t: 0.6 * t,
    )
    extended = extend(system)
    rng = np.random.default_rng(6)
    for _ in range(4):
        w = rng.normal(size=(3, 2))
        w[:, 0] = np.sort(w[:, 0])
        w[1, 0] = w[0, 0] + 0.3 + rng.random()
        w[2, 0] = w[1, 0] + 0.3 + rng.random()
        assert check_gradient(extended.lagrangian, w) < 1e-6


def counting_beam(calls):
    """Beam whose coefficient callables count their calls in calls[name]."""

    def counted(name, fn):
        def call(t):
            calls[name] = calls.get(name, 0) + 1
            return fn(t)

        return call

    return beam_system(
        counted("mu", lambda t: 1.0 + 0.2 * t + 0.01 * t ** 2),
        counted("rho", lambda t: 0.3 * t ** 2),
        dmu=counted("dmu", lambda t: 0.2 + 0.02 * t),
        drho=counted("drho", lambda t: 0.6 * t),
    )


def test_beam_coefficients_evaluated_once_per_window(monkeypatch):
    rng = np.random.default_rng(12)
    N, k = 12, 2
    times = np.arange(N + 1.0) + 0.3 * rng.random(N + 1)
    nodes = np.column_stack([times, rng.normal(size=N + 1)])
    lams = np.zeros((N - k + 1, 0))

    def sweep(system):
        ext = extend(system)
        return [node_gradient(ext, nodes, lams, p) for p in range(k, N - k + 1)]

    calls = {}
    cached = sweep(counting_beam(calls))
    assert calls == {name: N - k + 1 for name in ("mu", "rho", "dmu", "drho")}

    # The same system without the cache: every value recomputed, equal bit for bit.
    identity = types.SimpleNamespace(lru_cache=lambda maxsize: lambda fn: fn)
    monkeypatch.setattr(applications, "functools", identity)
    uncached_calls = {}
    uncached = sweep(counting_beam(uncached_calls))
    assert min(uncached_calls.values()) > 2 * (N - k + 1)
    for a, b in zip(cached, uncached):
        assert np.array_equal(a, b)


def test_beam_cubic_is_unforced_solution():
    system = beam_system(
        lambda t: 1.0, lambda t: 0.0, dmu=lambda t: 0.0, drho=lambda t: 0.0
    )
    extended = extend(system)
    h = 0.5
    times = h * np.arange(7.0)
    qs = 2.0 * times ** 3 - times
    nodes = np.column_stack([times, qs])
    mult = MultiplierSequence.zeros(5, 0)
    for p in range(2, 5):
        res = del_residual(extended, DiscretePath(nodes), mult, p)
        assert abs(res[1]) < 1e-8


def test_beam_constant_load_fixed_step():
    system = beam_system(lambda t: 1.0, lambda t: 0.1)
    timed, report = solve_fixed_step(
        system, 0.5, 0.0, [[0.0], [0.1]], [[0.4], [0.5]], 8
    )
    assert report.converged
    assert report.final_residual_norm < 1e-10


def test_underactuated_spec_validation():
    spec, times, head, tail = desk_ocp()
    with pytest.raises(DimensionError):
        UnderactuatedSpec(2, 2, spec.lagrangian, spec.cost)
    with pytest.raises(DimensionError):
        UnderactuatedSpec(3, 1, spec.lagrangian, spec.cost)


def test_underactuated_zero_cost():
    spec, times, head, tail = desk_ocp()
    zero = UnderactuatedSpec(2, 1, spec.lagrangian, lambda w2, u: 0.0)
    system = underactuated_to_constrained(zero)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 3))
    w[:, 0] = np.array([0.0, 0.3, 0.7])
    assert system.lagrangian.value(w) == 0.0
    assert system.m == 1


def test_recover_controls_shapes_and_linear_path():
    spec, times, head, tail = desk_ocp()
    with pytest.raises(DimensionError):
        recover_controls(spec, [0.0, 1.0], np.zeros((2, 2)))
    for bad_times in ([0.0, 0.25, 0.2, 0.75], [0.0, 0.25, np.nan, 0.75]):
        with pytest.raises(DimensionError):
            recover_controls(spec, bad_times, np.zeros((4, 2)))
    # straight free motion with the potential switched off gives u = 0
    free = UnderactuatedSpec(
        2, 1, coupled_quadratic_lagrangian(2, np.zeros((2, 2))), lambda w2, u: 0.0
    )
    ts = 0.25 * np.arange(5.0)
    nodes = np.outer(ts, [1.0, -2.0])
    u = recover_controls(free, ts, nodes)
    assert u.shape == (3, 1)
    np.testing.assert_allclose(u, 0.0, atol=1e-9)


def test_ocp_action_equals_cost_sum():
    spec, times, head, tail = desk_ocp()
    path, mult, report = solve_ocp(spec, times, head, tail, tol=1e-10)
    assert report.converged
    system = underactuated_to_constrained(spec)
    action = discrete_action(system, path, mult)
    controls = recover_controls(spec, times, path.nodes[:, 1:])
    cost_sum = sum(0.5 * float(u @ u) for u in controls)
    assert action == pytest.approx(cost_sum, abs=1e-10)


def test_solve_ocp_rejects_bad_times():
    spec, times, head, tail = desk_ocp()
    for bad in (np.nan, np.inf, times[5]):
        t = times.copy()
        t[6] = bad
        with pytest.raises(DimensionError):
            solve_ocp(spec, t, head, tail)
