"""Configuration windows, constrained systems, and the discrete action.

A system of order k on an n-dimensional configuration space is described
by scalar functions on windows of k+1 consecutive configuration points.
Windows are stored as arrays of shape (k+1, n), node-major.  Factor
indices j in partial derivatives are 1-based (j = 1..k+1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError

Array = np.ndarray


def as_window(window, k: int, n: int) -> Array:
    """Coerce to a (k+1, n) float array."""
    w = np.asarray(window, dtype=float)
    if w.ndim == 1 and n == 1:
        w = w[:, None]
    if w.shape != (k + 1, n):
        raise DimensionError(f"window has shape {w.shape}, expected {(k + 1, n)}")
    return w


@dataclass(frozen=True)
class WindowFunction:
    """Scalar function on a (k+1)-point configuration window.

    ``eval`` maps a (k+1, n) array to a float.  ``partials``, when given,
    is a sequence of k+1 callables; partials[j-1] returns the length-n
    gradient with respect to the j-th window factor.  Every callable must
    be a pure function of the window: the solvers reuse a window's terms
    while its nodes are bitwise unchanged.
    """

    k: int
    n: int
    eval: Callable[[Array], float]
    partials: Optional[Sequence[Callable[[Array], Array]]] = None

    def __post_init__(self):
        if self.k < 1:
            raise DimensionError(f"order k must be positive, got {self.k}")
        if self.n < 1:
            raise DimensionError(f"dimension n must be positive, got {self.n}")
        if self.partials is not None and len(self.partials) != self.k + 1:
            raise DimensionError(
                f"expected {self.k + 1} partials, got {len(self.partials)}"
            )

    def value(self, window) -> float:
        return float(self.eval(as_window(window, self.k, self.n)))


@dataclass(frozen=True)
class ConstrainedSystem:
    """Order-k Lagrangian system with m scalar window constraints."""

    k: int
    n: int
    lagrangian: WindowFunction
    constraints: tuple[WindowFunction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if (self.lagrangian.k, self.lagrangian.n) != (self.k, self.n):
            raise DimensionError("lagrangian (k, n) does not match system")
        for c in self.constraints:
            if (c.k, c.n) != (self.k, self.n):
                raise DimensionError("constraint (k, n) does not match system")
        if len(self.constraints) >= self.n * (self.k + 1):
            raise DimensionError(
                f"m = {len(self.constraints)} constraints cannot be independent "
                f"on a window of dimension {self.n * (self.k + 1)}"
            )

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class DiscretePath:
    """Node configurations q_0..q_N as an (N+1, n) array."""

    nodes: Array

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        if nodes.ndim != 2:
            raise DimensionError(f"path nodes must be 2-D, got shape {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise DimensionError("path has non-finite entries")
        object.__setattr__(self, "nodes", nodes)

    @property
    def N(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    def window(self, i: int, k: int) -> Array:
        if not 0 <= i <= self.N - k:
            raise DimensionError(f"window index {i} out of range 0..{self.N - k}")
        return self.nodes[i : i + k + 1]


@dataclass(frozen=True)
class MultiplierSequence:
    """Multipliers lambda^0..lambda^{N-k} as an (N-k+1, m) array."""

    lambdas: Array

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim == 1:
            lam = lam[:, None]
        if lam.ndim != 2:
            raise DimensionError(f"multipliers must be 2-D, got shape {lam.shape}")
        if not np.isfinite(lam).all():
            raise DimensionError("multipliers have non-finite entries")
        object.__setattr__(self, "lambdas", lam)

    @property
    def m(self) -> int:
        return self.lambdas.shape[1]

    @classmethod
    def zeros(cls, count: int, m: int) -> "MultiplierSequence":
        return cls(np.zeros((count, m)))


def augmented_window_value(system: ConstrainedSystem, window, lam) -> float:
    """L_d on the window plus the multiplier-weighted constraint sum."""
    w = as_window(window, system.k, system.n)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (system.m,):
        raise DimensionError(f"lambda has shape {lam.shape}, expected ({system.m},)")
    if not np.isfinite(lam).all():
        raise DimensionError("lambda has non-finite entries")
    value = system.lagrangian.value(w)
    for alpha, phi in enumerate(system.constraints):
        value += lam[alpha] * phi.value(w)
    return value


def discrete_action(
    system: ConstrainedSystem,
    path: DiscretePath,
    multipliers: MultiplierSequence,
) -> float:
    """Sum of augmented window values over windows i = 0..N-k."""
    k = system.k
    if path.n != system.n:
        raise DimensionError(f"path dimension {path.n} does not match system n={system.n}")
    if path.N < 2 * k:
        raise DimensionError(f"path needs N >= {2 * k} nodes beyond q_0, got N={path.N}")
    nwin = path.N - k + 1
    if multipliers.lambdas.shape != (nwin, system.m):
        raise DimensionError(
            f"multipliers have shape {multipliers.lambdas.shape}, "
            f"expected {(nwin, system.m)}"
        )
    return sum(
        augmented_window_value(system, path.window(i, k), multipliers.lambdas[i])
        for i in range(nwin)
    )
