import numpy as np
import pytest

from hovi.core import DiscretePath, MultiplierSequence, WindowFunction
from hovi.delsolve import BoundaryData, del_residual, solve_bvp
from hovi.derivatives import check_gradient
from hovi.errors import DimensionError, NumericError
from hovi.timedep import (
    TimeDependentLagrangian,
    TimedPath,
    adaptive_step_constraints,
    discrete_energy,
    extend,
    fixed_step_constraints,
    solve_fixed_step,
    solve_free_times,
)

from util_systems import oscillator_lagrangian


def free_lagrangian():
    """k=1 kinetic Lagrangian on R x Q with analytic partials."""

    def ev(ts, qs):
        v = (qs[1, 0] - qs[0, 0]) / (ts[1] - ts[0])
        return 0.5 * v * v

    def d1(ts, qs):
        h = ts[1] - ts[0]
        v = (qs[1, 0] - qs[0, 0]) / h
        return np.array([v * v / h, -v / h])

    def d2(ts, qs):
        h = ts[1] - ts[0]
        v = (qs[1, 0] - qs[0, 0]) / h
        return np.array([-v * v / h, v / h])

    return TimeDependentLagrangian(1, 1, ev, (d1, d2))


def test_timed_path_validation():
    with pytest.raises(DimensionError):
        TimedPath([0.0, 0.0, 1.0], np.zeros(3))
    with pytest.raises(DimensionError):
        TimedPath([0.0, 1.0], np.zeros(3))
    tp = TimedPath([0.0, 0.5, 2.0], [1.0, 2.0, 3.0])
    assert tp.N == 2
    assert tp.extended_nodes().shape == (3, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_timed_path_rejects_non_finite_entries(bad):
    with pytest.raises(DimensionError, match="non-finite"):
        TimedPath([0.0, bad], np.zeros(2))
    with pytest.raises(DimensionError, match="non-finite"):
        TimedPath([0.0, 1.0], [0.0, bad])


def test_lagrangian_partials_length_checked():
    with pytest.raises(DimensionError):
        TimeDependentLagrangian(2, 1, lambda ts, qs: 0.0, (lambda ts, qs: None,))


def test_extend_weight_is_time_span():
    tdl = TimeDependentLagrangian(2, 1, lambda ts, qs: 1.0)
    system = extend(tdl)
    assert system.n == 2
    window = np.array([[0.0, 5.0], [0.4, 6.0], [1.1, 7.0]])
    assert system.lagrangian.value(window) == pytest.approx(1.1, abs=1e-14)


def test_extend_composes_analytic_partials():
    system = extend(free_lagrangian())
    rng = np.random.default_rng(8)
    for _ in range(4):
        window = rng.normal(size=(2, 2))
        window[1, 0] = window[0, 0] + 0.3 + rng.random()
        assert check_gradient(system.lagrangian, window) < 1e-6


def test_autonomous_constant_path_spatial_residuals_vanish():
    system = extend(free_lagrangian())
    times = np.array([0.0, 0.4, 0.9, 1.3, 2.2, 2.5])
    nodes = np.column_stack([times, np.full(6, 3.7)])
    mult = MultiplierSequence.zeros(5, 0)
    for p in range(1, 5):
        res = del_residual(system, DiscretePath(nodes), mult, p)
        assert abs(res[1]) < 1e-12


def test_linear_path_uniform_times_full_residual_vanishes():
    system = extend(free_lagrangian())
    times = 0.3 * np.arange(6.0)
    nodes = np.column_stack([times, 1.0 + 2.0 * times])
    mult = MultiplierSequence.zeros(5, 0)
    for p in range(1, 5):
        np.testing.assert_allclose(
            del_residual(system, DiscretePath(nodes), mult, p), 0.0, atol=1e-12
        )


def test_time_residual_is_energy_difference():
    # the time component of the extended residual at node p equals
    # E_d(step p) - E_d(step p-1)
    tdl = oscillator_lagrangian()
    system = extend(tdl)
    rng = np.random.default_rng(17)
    times = np.cumsum(0.2 + 0.3 * rng.random(6))
    qs = rng.normal(size=6)
    nodes = np.column_stack([times, qs])
    mult = MultiplierSequence.zeros(5, 0)
    for p in range(1, 5):
        res = del_residual(system, DiscretePath(nodes), mult, p)
        ediff = discrete_energy(tdl, times, qs, p) - discrete_energy(
            tdl, times, qs, p - 1
        )
        assert abs(res[0] - ediff) < 1e-6


def test_discrete_energy_constant_path():
    tdl = free_lagrangian()
    times = np.array([0.0, 0.3, 1.0, 1.4])
    assert discrete_energy(tdl, times, np.full(4, 2.0), 1) == pytest.approx(
        0.0, abs=1e-12
    )


def test_discrete_energy_linear_path_hand_value():
    tdl = free_lagrangian()
    v = 1.7
    times = np.array([0.0, 0.4, 0.9, 1.3])
    qs = v * times
    for i in range(3):
        assert discrete_energy(tdl, times, qs, i) == pytest.approx(
            0.5 * v * v, abs=1e-12
        )


def test_discrete_energy_validation():
    tdl = free_lagrangian()
    with pytest.raises(DimensionError):
        discrete_energy(tdl, [0.0, 1.0, 0.5], np.zeros(3), 1)
    with pytest.raises(DimensionError):
        discrete_energy(tdl, [0.0, 1.0, 2.0], np.zeros(3), 2)


def test_fixed_step_constraints_values_and_partials():
    cons = fixed_step_constraints(0.4, n=1, k=2)
    assert len(cons) == 2
    good = np.array([[0.0, 1.0], [0.4, 2.0], [0.8, 3.0]])
    assert cons[0].value(good) == pytest.approx(0.0, abs=1e-14)
    assert cons[1].value(good) == pytest.approx(0.0, abs=1e-14)
    bumped = good.copy()
    bumped[2, 0] += 1e-3
    assert cons[1].value(bumped) == pytest.approx(1e-3, abs=1e-12)
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 2))
    for c in cons:
        assert check_gradient(c, w) < 1e-6
    with pytest.raises(DimensionError):
        fixed_step_constraints(0.0)


def test_adaptive_step_constraints():
    cons = adaptive_step_constraints(lambda qs: 0.4, n=1, k=2)
    fixed = fixed_step_constraints(0.4, n=1, k=2)
    rng = np.random.default_rng(9)
    w = rng.normal(size=(3, 2))
    for ca, cf in zip(cons, fixed):
        assert ca.value(w) == pytest.approx(cf.value(w), abs=1e-14)

    bad = adaptive_step_constraints(lambda qs: -1.0, n=1, k=2)
    with pytest.raises(NumericError):
        bad[0].value(w)

    # q-partials are minus the step-size function's derivatives
    hfun = lambda qs: 0.3 * (1.0 + qs[0, 0] ** 2)
    dep = adaptive_step_constraints(hfun, n=1, k=2)[0]
    from hovi.derivatives import partial_fd

    grad = partial_fd(dep, 1, w)
    assert grad[1] == pytest.approx(-0.6 * w[0, 1], abs=1e-6)


def test_solve_fixed_step_matches_autonomous_solve():
    omega = 1.3
    h = 0.2
    tdl = oscillator_lagrangian(omega)

    def lag_a(w, h=h):
        v = (w[1, 0] - w[0, 0]) / h
        qb = 0.5 * (w[0, 0] + w[1, 0])
        return 0.5 * v * v - 0.5 * omega ** 2 * qb * qb

    from hovi.core import ConstrainedSystem

    auto = ConstrainedSystem(1, 1, WindowFunction(1, 1, lag_a), ())
    N = 8
    boundary = BoundaryData([[0.0]], [[1.0]], N)
    path_a, _, rep_a = solve_bvp(auto, boundary)
    timed, rep_t = solve_fixed_step(tdl, h, 0.0, [[0.0]], [[1.0]], N)
    assert rep_a.converged and rep_t.converged
    np.testing.assert_allclose(timed.nodes, path_a.nodes, atol=1e-10)
    np.testing.assert_allclose(timed.times, h * np.arange(N + 1), atol=1e-14)


def test_solve_fixed_step_validation():
    tdl = oscillator_lagrangian()
    with pytest.raises(DimensionError):
        solve_fixed_step(tdl, -0.1, 0.0, [[0.0]], [[1.0]], 8)
    with pytest.raises(DimensionError):
        solve_fixed_step(tdl, 0.1, 0.0, [[0.0]], [[1.0]], 2)


def test_solve_free_times_oscillator():
    tdl = oscillator_lagrangian()
    head = TimedPath([0.0], [0.0])
    tail = TimedPath([2.0], [1.0])
    timed, report = solve_free_times(tdl, head, tail, N=8, tol=1e-10)
    assert report.converged
    assert np.all(np.diff(timed.times) > 0)
    assert timed.times[0] == pytest.approx(0.0)
    assert timed.times[-1] == pytest.approx(2.0)
    assert timed.nodes[0, 0] == pytest.approx(0.0)
    assert timed.nodes[-1, 0] == pytest.approx(1.0)
