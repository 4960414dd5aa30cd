"""Quasi-Newton minimization: BFGS with a strong-Wolfe line search.

The textbook method (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
Algorithm 6.1, with the line search of Algorithms 3.5 and 3.6).  The first
inverse Hessian is the identity.  Each step meets the strong Wolfe conditions
with c1 = 1e-4 and c2 = 0.9: the line search doubles its trial step until it
brackets an acceptable one, then narrows the bracket by a safeguarded cubic
interpolation of the values and slopes at its ends.  The objective returns
its value and gradient together and is called for nothing else, so `nfev`
counts every call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

GRAD_TOL = 1e-8  # convergence: the gradient's infinity norm at most this
_C1, _C2 = 1e-4, 0.9  # sufficient-decrease and curvature constants
_TRIALS = 20  # objective calls one line search may make
_SAFE = 0.1  # a cubic step nearer an end than this share of the bracket bisects instead

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class Result(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int  # calls of the objective
    success: bool  # the gradient's infinity norm reached GRAD_TOL


def minimize(fun: Objective, x0: np.ndarray, maxiter: int) -> Result:
    """Minimize `fun` from `x0`, where fun(x) returns (value, gradient).

    Succeeds when the gradient's infinity norm is at most GRAD_TOL.  After
    `maxiter` steps, or when a line search finds no acceptable step, it
    returns the current point unconverged; every accepted step lowers the
    value, so `fun` is never above the value at `x0`.  A non-finite value or
    gradient at any point ends the search there with a non-finite `fun`.
    """
    nfev = 0

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal nfev
        nfev += 1
        f, g = fun(x)
        g = np.asarray(g, dtype=np.float64)
        return (float(f) if np.isfinite(g).all() else math.nan), g

    x = np.array(x0, dtype=np.float64)
    f, g = evaluate(x)
    h = np.eye(x.size)  # inverse Hessian estimate
    f_prev = f + float(np.linalg.norm(g)) / 2  # the value before the last step, as scipy guesses it at the start
    for _ in range(maxiter):
        if not math.isfinite(f) or np.abs(g).max() <= GRAD_TOL:
            break
        p = -h @ g
        slope = float(g @ p)
        if not slope < 0:  # h has lost positive definiteness: restart along steepest descent
            h, p = np.eye(x.size), -g
            slope = float(g @ p)
        # scipy's first trial: the step that would repeat the last decrease, if below 1
        step = min(1.0, 1.01 * 2 * (f - f_prev) / slope)
        found = _line_search(evaluate, x, f, p, slope, step if step > 0 else 1.0)
        if found is None:
            break
        x_new, f_new, g_new = found
        if not math.isfinite(f_new):
            return Result(x_new, f_new, nfev, False)
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:  # the curvature condition holds; otherwise keep h
            hy = h @ y
            h += ((sy + y @ hy) / sy * np.outer(s, s) - np.outer(hy, s) - np.outer(s, hy)) / sy
        f_prev, x, f, g = f, x_new, f_new, g_new
    return Result(x, f, nfev, math.isfinite(f) and np.abs(g).max() <= GRAD_TOL)


def _line_search(
    evaluate: Objective, x: np.ndarray, f0: float, p: np.ndarray, slope0: float, step: float
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """(point, value, gradient) at a step along p that meets the strong Wolfe
    conditions, or at the first trial point whose value or gradient is not
    finite; None when `_TRIALS` calls find neither."""
    lo = (0.0, f0, slope0)  # (step, value, slope) of the lowest trial meeting sufficient decrease
    hi = None  # the bracket's other end, once a trial has bracketed an acceptable step
    for _ in range(_TRIALS):
        x_new = x + step * p
        f, g = evaluate(x_new)
        if not math.isfinite(f):
            return x_new, f, g
        slope = float(g @ p)
        if f > f0 + _C1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
        elif abs(slope) <= -_C2 * slope0:
            return x_new, f, g
        else:
            ahead = 1.0 if hi is None else hi[0] - lo[0]  # before a bracket, hi lies at longer steps
            if slope * ahead >= 0:
                hi = lo
            lo = (step, f, slope)
        step = 2.0 * step if hi is None else _cubic(lo, hi)
    return None


def _cubic(lo: tuple[float, float, float], hi: tuple[float, float, float]) -> float:
    """Minimizer of the cubic with the value and slope of both ends of the
    bracket (N&W eq. 3.59), or the midpoint when the cubic has none or it
    lies within `_SAFE` of the bracket's width from an end."""
    (a, fa, da), (b, fb, db) = lo, hi
    mid = 0.5 * (a + b)
    if a == b:
        return mid
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    radicand = d1 * d1 - da * db
    if not radicand >= 0:
        return mid
    d2 = math.copysign(math.sqrt(radicand), b - a)
    denominator = db - da + 2.0 * d2
    if denominator == 0:
        return mid
    c = b - (b - a) * (db + d2 - d1) / denominator
    margin = _SAFE * abs(b - a)
    return c if min(a, b) + margin <= c <= max(a, b) - margin else mid
