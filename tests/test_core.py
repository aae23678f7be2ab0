import numpy as np
import pytest

from hovi.core import (
    ConstrainedSystem,
    DiscretePath,
    MultiplierSequence,
    WindowFunction,
    augmented_window_value,
    discrete_action,
)
from hovi.errors import DimensionError
from hovi.applications import sphere_spline_system

from util_systems import second_difference_system


def test_window_function_validates_order_and_dim():
    with pytest.raises(DimensionError):
        WindowFunction(0, 1, lambda w: 0.0)
    with pytest.raises(DimensionError):
        WindowFunction(1, 0, lambda w: 0.0)
    with pytest.raises(DimensionError):
        WindowFunction(1, 1, lambda w: 0.0, (lambda w: np.zeros(1),))  # needs k+1


def test_window_function_value_coerces_shape():
    f = WindowFunction(1, 2, lambda w: float(w[0] @ w[1]))
    assert f.value([[1.0, 2.0], [3.0, 4.0]]) == 11.0
    with pytest.raises(DimensionError):
        f.value(np.zeros((3, 2)))


def test_constrained_system_shape_checks():
    lag = WindowFunction(1, 1, lambda w: 0.0)
    bad = WindowFunction(2, 1, lambda w: 0.0)
    with pytest.raises(DimensionError):
        ConstrainedSystem(1, 1, lag, (bad,))
    # m must stay below n(k+1)
    phi = WindowFunction(1, 1, lambda w: 0.0)
    with pytest.raises(DimensionError):
        ConstrainedSystem(1, 1, lag, (phi, phi))


def test_discrete_path_and_multipliers():
    path = DiscretePath(np.arange(10.0).reshape(5, 2))
    assert path.N == 4 and path.n == 2
    np.testing.assert_array_equal(path.window(1, 2), np.arange(2.0, 8.0).reshape(3, 2))
    mult = MultiplierSequence.zeros(4, 2)
    assert mult.lambdas.shape == (4, 2)
    with pytest.raises(DimensionError):
        DiscretePath(np.zeros((2, 1))).window(0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_multipliers_reject_non_finite_entries(bad):
    lams = np.zeros((3, 1))
    lams[1, 0] = bad
    with pytest.raises(DimensionError, match="non-finite"):
        MultiplierSequence(lams)
    system = sphere_spline_system(1.0, 1.0)
    with pytest.raises(DimensionError, match="non-finite"):
        augmented_window_value(system, np.zeros((3, 3)), np.array([bad]))


def test_augmented_window_value_no_constraints():
    lag = WindowFunction(1, 1, lambda w: 7.0)
    system = ConstrainedSystem(1, 1, lag, ())
    w = np.zeros((2, 1))
    assert augmented_window_value(system, w, np.zeros(0)) == 7.0


def test_augmented_window_value_constant_constraint():
    lag = WindowFunction(1, 1, lambda w: 0.0)
    phi = WindowFunction(1, 1, lambda w: 1.0)
    system = ConstrainedSystem(1, 1, lag, (phi,))
    assert augmented_window_value(system, np.zeros((2, 1)), np.array([3.0])) == 3.0


def test_augmented_window_value_on_sphere_vanishes():
    system = sphere_spline_system(2.0, 0.1)
    p = np.array([0.0, 0.0, 2.0])
    window = np.tile(p, (3, 1))
    value = augmented_window_value(system, window, np.array([5.0]))
    assert abs(value) < 1e-12


def test_discrete_action_counts_windows():
    lag = WindowFunction(2, 1, lambda w: 1.0)
    system = ConstrainedSystem(2, 1, lag, ())
    path = DiscretePath(np.zeros((6, 1)))  # N = 5, k = 2 -> 4 windows
    mult = MultiplierSequence.zeros(4, 0)
    assert discrete_action(system, path, mult) == 4.0


def test_discrete_action_cubic_hand_value():
    # second differences of j^3 are 6j + 6; windows at i = 0, 1, 2
    system = second_difference_system(h=1.0)
    path = DiscretePath(np.array([float(j ** 3) for j in range(5)])[:, None])
    mult = MultiplierSequence.zeros(3, 0)
    assert discrete_action(system, path, mult) == pytest.approx(252.0, abs=1e-12)


def test_discrete_action_constraint_contribution():
    system = sphere_spline_system(1.0, 1.0)
    path = DiscretePath(np.zeros((5, 3)))
    mult = MultiplierSequence(np.ones((3, 1)))
    assert discrete_action(system, path, mult) == pytest.approx(-3.0, abs=1e-12)


def test_discrete_action_window_additivity():
    rng = np.random.default_rng(7)
    system = second_difference_system(h=0.5)
    nodes = rng.normal(size=(8, 1))
    lams = rng.normal(size=(6, 0))
    full = discrete_action(system, DiscretePath(nodes), MultiplierSequence(lams))
    short = discrete_action(
        system, DiscretePath(nodes[:-1]), MultiplierSequence(lams[:-1])
    )
    last = system.lagrangian.value(nodes[5:8])
    assert full - short == pytest.approx(last, rel=1e-12)


def test_augmented_value_linear_in_lambda():
    system = sphere_spline_system(1.0, 0.2)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 3))
    v0 = augmented_window_value(system, w, np.array([0.0]))
    v1 = augmented_window_value(system, w, np.array([1.0]))
    v2 = augmented_window_value(system, w, np.array([2.0]))
    assert v2 - v1 == pytest.approx(v1 - v0, rel=1e-10)
