"""Partial derivatives of window functions.

Analytic partials win whenever a WindowFunction carries them; otherwise
second-order central differences with a per-coordinate relative step.
Second derivatives use a four-point cross stencil with a sqrt-scaled
step.
"""
from __future__ import annotations

import numpy as np

from .core import WindowFunction, as_window
from .errors import DimensionError, NumericError

FD_STEP = 1e-6


def _check_factor(f: WindowFunction, j: int) -> None:
    if not 1 <= j <= f.k + 1:
        raise DimensionError(f"factor index {j} out of range 1..{f.k + 1}")


def _steps(coords: np.ndarray, scale: float) -> np.ndarray:
    return scale * np.maximum(1.0, np.abs(coords))


def partial_fd(f: WindowFunction, j: int, window) -> np.ndarray:
    """Central-difference D_j f, ignoring any analytic partials."""
    _check_factor(f, j)
    w = as_window(window, f.k, f.n)
    grad = np.empty(f.n)
    hs = _steps(w[j - 1], FD_STEP)
    for a in range(f.n):
        wp = w.copy()
        wm = w.copy()
        wp[j - 1, a] += hs[a]
        wm[j - 1, a] -= hs[a]
        grad[a] = (f.eval(wp) - f.eval(wm)) / (2.0 * hs[a])
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite finite-difference partial D_{j}")
    return grad


def partial(f: WindowFunction, j: int, window) -> np.ndarray:
    """D_j f on the window: analytic when supplied, central difference otherwise."""
    _check_factor(f, j)
    w = as_window(window, f.k, f.n)
    if f.partials is not None:
        g = np.atleast_1d(np.asarray(f.partials[j - 1](w), dtype=float))
        if g.shape != (f.n,):
            raise DimensionError(f"analytic partial D_{j} has shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite analytic partial D_{j}")
        return g
    return partial_fd(f, j, w)


def cross_partial(f: WindowFunction, j1: int, j2: int, window) -> np.ndarray:
    """Matrix of second partials, entry [a, b] = d^2 f / d w_{j1,a} d w_{j2,b}.

    With analytic first partials: central difference of D_{j2} along factor
    j1.  Fully numeric: four-point cross stencil with step FD_STEP**0.5.
    """
    _check_factor(f, j1)
    _check_factor(f, j2)
    w = as_window(window, f.k, f.n)
    mat = np.empty((f.n, f.n))
    if f.partials is not None:
        hs = _steps(w[j1 - 1], FD_STEP)
        for a in range(f.n):
            wp = w.copy()
            wm = w.copy()
            wp[j1 - 1, a] += hs[a]
            wm[j1 - 1, a] -= hs[a]
            mat[a] = (partial(f, j2, wp) - partial(f, j2, wm)) / (2.0 * hs[a])
    else:
        scale = FD_STEP ** 0.5
        h1 = _steps(w[j1 - 1], scale)
        h2 = _steps(w[j2 - 1], scale)
        for a in range(f.n):
            for b in range(f.n):
                wpp = w.copy()
                wpm = w.copy()
                wmp = w.copy()
                wmm = w.copy()
                wpp[j1 - 1, a] += h1[a]
                wpp[j2 - 1, b] += h2[b]
                wpm[j1 - 1, a] += h1[a]
                wpm[j2 - 1, b] -= h2[b]
                wmp[j1 - 1, a] -= h1[a]
                wmp[j2 - 1, b] += h2[b]
                wmm[j1 - 1, a] -= h1[a]
                wmm[j2 - 1, b] -= h2[b]
                mat[a, b] = (
                    f.eval(wpp) - f.eval(wpm) - f.eval(wmp) + f.eval(wmm)
                ) / (4.0 * h1[a] * h2[b])
    if not np.all(np.isfinite(mat)):
        raise NumericError(f"non-finite cross partial D_{j1}D_{j2}")
    return mat


def check_gradient(f: WindowFunction, window) -> float:
    """Max relative discrepancy between analytic and central-difference partials."""
    if f.partials is None:
        raise DimensionError("check_gradient requires analytic partials")
    w = as_window(window, f.k, f.n)
    worst = 0.0
    for j in range(1, f.k + 2):
        ana = partial(f, j, w)
        num = partial_fd(f, j, w)
        rel = np.abs(ana - num) / (1.0 + np.abs(ana))
        worst = max(worst, float(rel.max()))
    return worst
