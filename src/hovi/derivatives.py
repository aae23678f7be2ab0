"""Partial derivatives of window functions.

Analytic partials win whenever a WindowFunction carries them; otherwise
central_difference, the package's one first-order difference routine.
Numeric second derivatives use a four-point cross stencil with a
sqrt-scaled step.
"""
from __future__ import annotations

import numpy as np

from .core import WindowFunction, as_window
from .errors import DimensionError, NumericError

FD_STEP = 1e-6


def _check_factor(f: WindowFunction, j: int) -> None:
    if not 1 <= j <= f.k + 1:
        raise DimensionError(f"factor index {j} out of range 1..{f.k + 1}")


def central_difference(fn, x, step: float, pattern=None, groups=None) -> np.ndarray:
    """Central-difference Jacobian of fn at the non-empty 1-D point x.

    fn returns a float or a 1-D array.  Column a is
    (fn(x + h_a e_a) - fn(x - h_a e_a)) / (2 h_a) with the relative step
    h_a = step * max(1, |x_a|); a scalar fn gives one row.

    pattern, a boolean (rows, columns) array, marks the entries that may
    be nonzero.  Columns that share no marked row are then perturbed
    together, each by its own h_a, and each keeps only its marked rows
    (Curtis, Powell & Reid 1974).  When every row reads only the columns
    marked in it, the result equals the column-by-column one bit for bit.
    groups, the pattern's _column_groups, saves recoloring a pattern that
    is differenced repeatedly.
    """
    x = np.asarray(x, dtype=float)
    h = step * np.maximum(1.0, np.abs(x))
    if pattern is None:
        groups = range(x.size)
    elif groups is None:
        groups = _column_groups(pattern)
    jac = None
    for group in groups:
        xp = x.copy()
        xm = x.copy()
        xp[group] += h[group]
        xm[group] -= h[group]
        diff = fn(xp) - fn(xm)
        if jac is None:
            jac = np.zeros((np.size(diff), x.size))
        if pattern is None:
            jac[:, group] = diff / (2.0 * h[group])
        else:
            for a in group:
                rows = pattern[:, a]
                jac[rows, a] = diff[rows] / (2.0 * h[a])
    return jac


def _column_groups(pattern) -> list:
    """Greedy partition of the pattern's columns into groups sharing no row.

    Column a joins the first group none of whose rows it marks.
    """
    taken = np.zeros((pattern.shape[1], pattern.shape[0]), dtype=bool)
    groups = []
    for a in range(pattern.shape[1]):
        rows = pattern[:, a]
        c = int(np.argmin(taken[: len(groups) + 1, rows].any(axis=1)))
        if c == len(groups):
            groups.append([])
        groups[c].append(a)
        taken[c, rows] = True
    return groups


def _with_factor(w: np.ndarray, j: int, row: np.ndarray) -> np.ndarray:
    """Copy of window w with factor j replaced by row."""
    out = w.copy()
    out[j - 1] = row
    return out


def partial_fd(f: WindowFunction, j: int, window) -> np.ndarray:
    """Central-difference D_j f, ignoring any analytic partials."""
    _check_factor(f, j)
    w = as_window(window, f.k, f.n)
    grad = central_difference(lambda row: f.eval(_with_factor(w, j, row)), w[j - 1], FD_STEP)[0]
    if not np.isfinite(grad).all():
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
        if not np.isfinite(g).all():
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
    if f.partials is not None:
        mat = central_difference(
            lambda row: partial(f, j2, _with_factor(w, j1, row)), w[j1 - 1], FD_STEP
        ).T
    else:
        mat = np.empty((f.n, f.n))
        scale = FD_STEP ** 0.5
        h1 = scale * np.maximum(1.0, np.abs(w[j1 - 1]))
        h2 = scale * np.maximum(1.0, np.abs(w[j2 - 1]))
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
    if not np.isfinite(mat).all():
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
