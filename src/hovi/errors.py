"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Inputs do not match the system's order/dimension layout."""


class NumericError(ArithmeticError):
    """A numerical evaluation produced a non-finite or invalid value."""


class RegularityError(RuntimeError):
    """The Jacobian of the equations being solved is singular.

    Raised for a Newton Jacobian, or the Jacobian of the one-step map's
    equations, whose condition estimate exceeds the limit; carries that
    estimate (inf for an exactly singular matrix) as ``condition``.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NonConvergenceError(RuntimeError):
    """Newton stopped short of tolerance: iteration cap or failed line search.

    ``last_iterate`` holds the final (path, multipliers) pair or raw
    unknown vector; ``report`` the solve diagnostics.
    """

    def __init__(self, message, last_iterate=None, report=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.report = report
