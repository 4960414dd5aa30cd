"""The package's BFGS minimizer, and the import footprint it keeps small."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iqcc
from iqcc.bfgs import GRAD_TOL, minimize


def _counted(fun):
    """fun with a count of its calls in `.calls`."""

    def wrapper(x):
        wrapper.calls += 1
        return fun(x)

    wrapper.calls = 0
    return wrapper


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_converges_on_spd_quadratics(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * rng.uniform(0.1, 10.0, n)) @ q.T
    x_min, x0 = rng.normal(size=n), rng.normal(scale=3.0, size=n)

    @_counted
    def fun(x):
        r = x - x_min
        return 0.5 * float(r @ a @ r), a @ r

    res = minimize(fun, x0, maxiter=500)
    assert res.nfev == fun.calls
    assert res.success and np.abs(fun(res.x)[1]).max() <= GRAD_TOL
    assert res.fun <= fun(x0)[0]  # never above the start


def _rosenbrock(x):
    a, b = x
    return (1 - a) ** 2 + 100 * (b - a * a) ** 2, np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])


def test_rosenbrock_converges():
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), maxiter=500)
    assert res.success
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-7)
    assert res.fun == pytest.approx(0.0, abs=1e-14)


def test_exhausting_maxiter_is_no_success():
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), maxiter=1)
    assert not res.success
    assert res.fun < _rosenbrock(np.array([-1.2, 1.0]))[0]


def test_a_line_search_that_finds_no_step_returns_the_current_point():
    # a linear function: every longer step is lower, and no slope meets the curvature condition
    fun = _counted(lambda x: (-float(x[0]), np.array([-1.0])))
    res = minimize(fun, np.array([0.0]), maxiter=500)
    assert not res.success
    assert res.x.tolist() == [0.0] and res.fun == 0.0
    assert res.nfev == fun.calls > 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_start_ends_at_once(value):
    fun = _counted(lambda x: (value, np.zeros_like(x)))
    res = minimize(fun, np.ones(3), maxiter=500)
    assert not res.success and not math.isfinite(res.fun)
    assert res.nfev == fun.calls == 1


@pytest.mark.parametrize("wall", [(math.inf, 1.0), (math.nan, 1.0), (-1.0, math.nan)])
def test_a_non_finite_trial_point_ends_the_search(wall):
    # a linear descent to a wall at x = 3, where the value or the gradient is not finite;
    # the line search steps 1, 2 and 4
    value, slope = wall

    @_counted
    def fun(x):
        return (value, np.array([slope])) if x[0] > 3.0 else (-float(x[0]), np.array([-1.0]))

    res = minimize(fun, np.array([0.0]), maxiter=500)
    assert not res.success and not math.isfinite(res.fun)
    assert res.x.tolist() == [4.0]
    assert res.nfev == fun.calls == 4


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    src = str(Path(iqcc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, iqcc, iqcc.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
