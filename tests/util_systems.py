"""Shared model systems for the test suite."""
import numpy as np

from hovi.core import ConstrainedSystem, WindowFunction


def free_particle(h: float = 1.0) -> ConstrainedSystem:
    """k=1 discrete free particle with analytic partials."""

    def lag(w):
        d = w[1, 0] - w[0, 0]
        return 0.5 * d * d / h

    def d1(w):
        return np.array([(w[0, 0] - w[1, 0]) / h])

    def d2(w):
        return np.array([(w[1, 0] - w[0, 0]) / h])

    return ConstrainedSystem(1, 1, WindowFunction(1, 1, lag, (d1, d2)), ())


def second_difference_system(h: float = 1.0, n: int = 1) -> ConstrainedSystem:
    """k=2 Lagrangian 1/(2h^3)|q_2 - 2q_1 + q_0|^2 with analytic partials."""

    def lag(w):
        d = w[2] - 2.0 * w[1] + w[0]
        return float(d @ d) / (2.0 * h ** 3)

    def d1(w):
        return (w[2] - 2.0 * w[1] + w[0]) / h ** 3

    def d2(w):
        return -2.0 * (w[2] - 2.0 * w[1] + w[0]) / h ** 3

    return ConstrainedSystem(2, n, WindowFunction(2, n, lag, (d1, d2, d1)), ())


def oscillator_lagrangian(omega: float = 1.3) -> WindowFunction:
    """Autonomous k=1 oscillator on R x Q, midpoint quadrature."""

    def lag(w):
        h = w[1, 0] - w[0, 0]
        v = (w[1, 1] - w[0, 1]) / h
        qbar = 0.5 * (w[0, 1] + w[1, 1])
        return 0.5 * v * v - 0.5 * omega ** 2 * qbar * qbar

    return WindowFunction(1, 2, lag)


def desk_ocp():
    """Fixed underactuated desk instance: n=2, r=1, coupled stiffness.

    Returns (spec, times, head, tail) for solve_ocp.  The off-diagonal
    stiffness couples the actuated and unactuated coordinates; a
    decoupled potential would leave the unactuated equation without any
    control authority and the multiplier system singular.
    """
    from hovi.applications import UnderactuatedSpec, coupled_quadratic_lagrangian

    K = np.array([[1.0, 0.8], [0.8, 2.0]])
    lagrangian = coupled_quadratic_lagrangian(2, K)
    spec = UnderactuatedSpec(2, 1, lagrangian, lambda w2, u: 0.5 * float(u @ u))
    times = 0.25 * np.arange(13)
    head = np.array([[0.0, 0.0], [0.01, 0.005]])
    tail = np.array([[0.05, 0.03], [0.055, 0.032]])
    return spec, times, head, tail
