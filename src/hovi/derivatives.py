"""Partial derivatives of window functions.

Analytic partials win whenever a WindowFunction carries them; otherwise
central_difference, the package's one first-order difference routine.
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
