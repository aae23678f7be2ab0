import numpy as np
import pytest

from hovi.core import WindowFunction
from hovi.derivatives import (
    central_difference,
    check_gradient,
    partial,
    partial_fd,
)
from hovi.errors import DimensionError, NumericError

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partial_rejects_non_finite_analytic_partial(bad):
    grads = (lambda w: np.array([bad, 0.0]), lambda w: np.zeros(2))
    f = WindowFunction(1, 2, lambda w: 0.0, grads)
    with pytest.raises(NumericError, match="analytic partial D_1"):
        partial(f, 1, np.zeros((2, 2)))
    assert np.array_equal(partial(f, 2, np.zeros((2, 2))), np.zeros(2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_partial_fd_rejects_non_finite_difference(bad):
    # Infinite on one side of w[0, 0] = 1 only: the difference is +-inf.
    f = WindowFunction(1, 1, lambda w: bad if w[0, 0] > 1.0 else 0.0)
    w = np.array([[1.0], [0.0]])
    with pytest.raises(NumericError, match="finite-difference partial D_1"):
        partial_fd(f, 1, w)
    with pytest.raises(NumericError, match="finite-difference partial D_1"):
        partial(f, 1, w)


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


def test_central_difference_exact_on_affine_map():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = 10.0 * rng.normal(size=4)
    jac = central_difference(lambda y: A @ y + b, x, 1e-6)
    assert jac.shape == (3, 4)
    np.testing.assert_allclose(jac, A, rtol=1e-8, atol=1e-8)


def test_central_difference_vector_valued_shape():
    # fn: R^2 -> R^3, so the Jacobian is (3, 2), one column per coordinate
    fn = lambda y: np.array([y[0] * y[1], np.sin(y[0]), y[1] ** 2])
    x = np.array([0.4, -1.5])
    jac = central_difference(fn, x, 1e-6)
    assert jac.shape == (3, 2)
    expected = np.array([[x[1], x[0]], [np.cos(x[0]), 0.0], [0.0, 2.0 * x[1]]])
    np.testing.assert_allclose(jac, expected, rtol=1e-8, atol=1e-8)


def test_central_difference_scalar_fn_is_one_row():
    x = np.array([1.0, -2.0, 3.0])
    jac = central_difference(lambda y: float(y @ y), x, 1e-6)
    assert jac.shape == (1, 3)
    np.testing.assert_allclose(jac[0], 2.0 * x, rtol=1e-8)


def test_central_difference_pattern_groups_columns():
    # Row i reads y[i-1], y[i], y[i+1]: three groups for any length.
    def fn(y):
        calls.append(1)
        out = y ** 3
        out[1:] += np.sin(y[:-1])
        out[:-1] += y[:-1] * y[1:]
        return out

    x = np.random.default_rng(3).normal(size=12)
    pattern = np.abs(np.subtract.outer(np.arange(12), np.arange(12))) <= 1
    calls = []
    colored = central_difference(fn, x, 1e-6, pattern)
    assert len(calls) == 6
    assert np.array_equal(colored, central_difference(fn, x, 1e-6))


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
