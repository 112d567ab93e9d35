import math

import numpy as np
import pytest

from nswp import integrate_time, nested_triple_integral
from nswp.errors import AccuracyError
from nswp import quadrature
from nswp.quadrature import cumulative_antiderivative, mesh_doubling


def test_constant_integrand():
    assert integrate_time(lambda t: 3.5, 0.0, 2.0, 1e-12) == pytest.approx(7.0, abs=1e-13)


def test_full_period_cosine():
    val = integrate_time(lambda t: math.cos(2.0 * t), 0.0, math.pi / 2.0, 1e-12)
    assert abs(val) < 1e-12


def test_polynomial_exact():
    val = integrate_time(lambda t: t**2, 0.0, 1.0, 1e-12)
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_reversed_interval_flips_sign():
    fwd = integrate_time(math.sin, 0.0, 2.0, 1e-12)
    rev = integrate_time(math.sin, 2.0, 0.0, 1e-12)
    assert fwd == -rev
    assert integrate_time(math.sin, 1.0, 1.0) == 0.0


def test_additivity_over_subintervals():
    f = lambda t: math.exp(-t) * math.sin(3.0 * t)
    tol = 1e-12
    whole = integrate_time(f, 0.0, 4.0, tol)
    split = integrate_time(f, 0.0, 1.3, tol) + integrate_time(f, 1.3, 4.0, tol)
    assert abs(whole - split) < 2.0 * tol


def test_depth_limit_raises_with_best_estimate():
    step = lambda t: 1.0 if t < 0.3 else 0.0
    with pytest.raises(AccuracyError) as exc_info:
        integrate_time(step, 0.0, 1.0, 1e-15)
    assert exc_info.value.best_estimate is not None


def test_nested_constant():
    c, t = 1.7, 2.0
    assert nested_triple_integral(lambda s: c, t) == pytest.approx(c * t**3 / 6, abs=1e-10)


def test_nested_linear():
    t = 1.5
    assert nested_triple_integral(lambda s: s, t) == pytest.approx(t**4 / 24, abs=1e-10)


def test_nested_sine():
    # pi^2/2 + cos(pi) - 1 = pi^2/2 - 2
    t = math.pi
    assert nested_triple_integral(math.sin, t) == pytest.approx(
        math.pi**2 / 2.0 - 2.0, abs=1e-9)


def test_nested_zero_time():
    assert nested_triple_integral(math.sin, 0.0) == 0.0


def test_nested_monotone_for_nonnegative():
    f = lambda s: 1.0 + math.sin(s) ** 2
    ts = np.linspace(0.2, 3.0, 8)
    vals = [nested_triple_integral(f, float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mesh_doubling_limit_raises_with_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_MESH", 256)
    # a functional that never settles: the number of mesh intervals
    with pytest.raises(AccuracyError) as exc_info:
        mesh_doubling(lambda ts, y: len(ts) - 1, math.sin, 1.0, 1e-10)
    assert exc_info.value.best_estimate == 256


def test_cumulative_antiderivative():
    anti = cumulative_antiderivative(math.sin, 5.0, 1e-11)
    ts = np.linspace(0.0, 5.0, 40)
    err = max(abs(float(anti(t)) - (1.0 - math.cos(t))) for t in ts)
    assert err < 1e-10
    with pytest.raises(ValueError):
        cumulative_antiderivative(math.sin, 0.0)
