import numpy as np
import pytest

from hovi.core import WindowFunction
from hovi.derivatives import (
    check_gradient,
    cross_partial,
    partial,
    partial_fd,
)
from hovi.errors import DimensionError

from util_systems import free_particle, second_difference_system


def product_function():
    return WindowFunction(1, 1, lambda w: float(w[0, 0] * w[1, 0]))


def test_partial_product_rule():
    f = product_function()
    w = np.array([[2.0], [5.0]])
    assert partial(f, 1, w) == pytest.approx([5.0], abs=1e-9)
    assert partial(f, 2, w) == pytest.approx([2.0], abs=1e-9)


def test_partial_constant_is_zero():
    f = WindowFunction(2, 3, lambda w: 4.0)
    for j in (1, 2, 3):
        np.testing.assert_allclose(partial(f, j, np.ones((3, 3))), 0.0)


def test_partial_second_difference_hand_value():
    # D_3 of the squared second difference at window (0, 0, 1) is the
    # second difference itself, = 1 with unit step
    f = second_difference_system(h=1.0).lagrangian
    w = np.array([[0.0], [0.0], [1.0]])
    assert partial(f, 3, w) == pytest.approx([1.0], abs=1e-12)
    # the finite-difference path agrees
    assert partial_fd(f, 3, w) == pytest.approx([1.0], abs=1e-9)


def test_partial_factor_index_out_of_range():
    f = product_function()
    w = np.zeros((2, 1))
    with pytest.raises(DimensionError):
        partial(f, 0, w)
    with pytest.raises(DimensionError):
        partial(f, 3, w)


def test_fd_exact_on_quadratics():
    # degree <= 2: central differences are exact up to roundoff
    f = free_particle(h=0.7).lagrangian
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.normal(size=(2, 1))
        for j in (1, 2):
            ana = partial(f, j, w)
            num = partial_fd(f, j, w)
            np.testing.assert_allclose(num, ana, rtol=1e-9, atol=1e-9)


def test_cross_partial_product():
    f = product_function()
    w = np.array([[2.0], [5.0]])
    np.testing.assert_allclose(cross_partial(f, 1, 2, w), [[1.0]], atol=1e-4)


def test_cross_partial_pure_quadratic():
    f = WindowFunction(1, 1, lambda w: 0.5 * w[0, 0] ** 2)
    w = np.array([[3.0], [-1.0]])
    np.testing.assert_allclose(cross_partial(f, 1, 1, w), [[1.0]], atol=1e-4)


def test_cross_partial_second_difference():
    f = second_difference_system(h=1.0).lagrangian
    w = np.array([[0.3], [-0.2], [0.9]])
    np.testing.assert_allclose(cross_partial(f, 1, 3, w), [[1.0]], atol=1e-6)


def test_cross_partial_schwarz_symmetry():
    def ev(w):
        return float(np.exp(w[0, 0] * w[1, 1]) + np.sin(w[2, 0]) * w[1, 0] ** 2)

    f = WindowFunction(2, 2, ev)
    rng = np.random.default_rng(11)
    w = 0.5 * rng.normal(size=(3, 2))
    for j1, j2 in ((1, 2), (1, 3), (2, 3)):
        a = cross_partial(f, j1, j2, w)
        b = cross_partial(f, j2, j1, w)
        np.testing.assert_allclose(a, b.T, atol=1e-6)


def test_check_gradient_correct_partials():
    f = second_difference_system(h=0.5).lagrangian
    rng = np.random.default_rng(5)
    assert check_gradient(f, rng.normal(size=(3, 1))) < 1e-5


def test_check_gradient_flags_scaled_partials():
    good = free_particle().lagrangian
    bad = WindowFunction(
        1, 1, good.eval, tuple(lambda w, g=g: 2.0 * g(w) for g in good.partials)
    )
    disc = check_gradient(bad, np.array([[0.0], [1.0]]))
    assert disc > 0.1


def test_check_gradient_constant_zero():
    f = WindowFunction(1, 2, lambda w: 2.5, (lambda w: np.zeros(2),) * 2)
    assert check_gradient(f, np.ones((2, 2))) == 0.0


def test_check_gradient_requires_partials():
    with pytest.raises(DimensionError):
        check_gradient(product_function(), np.zeros((2, 1)))
