import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import cumulative_simpson, simpson

from nswp import integrate_time, nested_triple_integral
from nswp.errors import AccuracyError
from nswp import quadrature
from nswp.quadrature import (cumulative_antiderivative, cumulative_simpson_uniform,
                             mesh_doubling, piecewise_quintic, simpson_uniform)

PROPERTY = settings(max_examples=10, deadline=None, derandomize=True, database=None)


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
    assert nested_triple_integral(lambda s: np.full_like(s, c), t) == pytest.approx(
        c * t**3 / 6, abs=1e-10)


def test_nested_linear():
    t = 1.5
    assert nested_triple_integral(lambda s: s, t) == pytest.approx(t**4 / 24, abs=1e-10)


def test_nested_sine():
    # pi^2/2 + cos(pi) - 1 = pi^2/2 - 2
    t = math.pi
    assert nested_triple_integral(np.sin, t) == pytest.approx(
        math.pi**2 / 2.0 - 2.0, abs=1e-9)


def test_nested_zero_time():
    assert nested_triple_integral(math.sin, 0.0) == 0.0


def test_nested_monotone_for_nonnegative():
    f = lambda s: 1.0 + np.sin(s) ** 2
    ts = np.linspace(0.2, 3.0, 8)
    vals = [nested_triple_integral(f, float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mesh_doubling_limit_raises_with_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_MESH", 256)
    # a functional that never settles: the number of mesh intervals
    with pytest.raises(AccuracyError) as exc_info:
        mesh_doubling(lambda ts, y: len(ts) - 1, np.sin, 1.0, 1e-10)
    assert exc_info.value.best_estimate == 256


def test_cumulative_antiderivative():
    anti = cumulative_antiderivative(np.sin, 5.0)
    ts = np.linspace(0.0, 5.0, 40)
    err = max(abs(float(anti(t)) - (1.0 - math.cos(t))) for t in ts)
    assert err < 1e-10
    with pytest.raises(ValueError):
        cumulative_antiderivative(np.sin, 0.0)


@pytest.mark.parametrize("t_max", [10.0, 3.0, 2.5, 1.0 / 3.0, math.pi, 1e-3, 7.77e4])
def test_even_nodes_of_a_doubled_mesh_are_the_coarse_mesh(t_max):
    # what lets each doubling keep the previous samples bit for bit
    for n in 2 ** np.arange(6, 17):
        assert np.array_equal(np.linspace(0.0, t_max, 2 * n + 1)[::2],
                              np.linspace(0.0, t_max, n + 1))


def test_doublings_sample_each_node_once():
    calls = []

    def F(t):
        calls.append(t)
        return 0.3 * np.sin(2.0 * t)

    anti = cumulative_antiderivative(F, 10.0)
    # converged at 1024 intervals: one call per mesh, on 257 + 256 + 512
    # nodes, not 257 + 513 + 1025
    assert [len(ts) for ts in calls] == [257, 256, 512]
    nodes = np.concatenate(calls)
    assert len(nodes) == len(set(nodes.tolist())) == 1025
    fresh = piecewise_quintic(F(np.linspace(0.0, 10.0, 1025)), 10.0 / 1024).antiderivative()
    assert np.array_equal(anti.coeffs, fresh.coeffs)

    calls.clear()
    mesh_doubling(lambda ts, y: simpson_uniform(y, ts[1] - ts[0]), F, 10.0, 1e-12)
    nodes = np.concatenate(calls)
    assert [len(ts) for ts in calls] == [65] + [64 << k for k in range(len(calls) - 1)]
    assert len(nodes) == len(set(nodes.tolist())) == len(np.linspace(0.0, 10.0, len(nodes)))


def test_piecewise_polynomial_on_an_array_is_its_scalar_calls():
    # bit for bit, at every node, between nodes and just past either end
    h = 10.0 / 1024
    anti = piecewise_quintic(0.3 * np.sin(2.0 * np.linspace(0.0, 10.0, 1025)),
                             h).antiderivative()
    ts = np.concatenate((np.linspace(0.0, 10.0, 1025),
                         np.linspace(-0.5 * h, 10.0 + 0.5 * h, 301)))
    values = anti(ts)
    assert values.shape == ts.shape
    assert np.array_equal(values, [anti(t) for t in ts.tolist()])
    assert np.array_equal(anti(ts.reshape(2, -1)), values.reshape(2, -1))


def test_cumulative_antiderivative_mesh_limit_raises_with_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_MESH", 512)
    # a jump converges only at first order, far from 1e-11 by 512 intervals
    with pytest.raises(AccuracyError) as exc_info:
        cumulative_antiderivative(lambda t: np.where(t < 0.3, 1.0, 0.0), 1.0)
    assert exc_info.value.best_estimate == pytest.approx(0.3, abs=1e-2)


# Oracles: scipy's Simpson sums on the meshes nswp uses, linspace(0, L, n).
# Rounding is measured against h * sum|y|, the integral of |y|, because the
# signed integral of random samples can cancel to far below its rounding.
@PROPERTY
@given(n=st.integers(3, 1025), length=st.floats(1e-2, 1e2),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-5.0, 5.0))
def test_simpson_sums_match_scipy(n, length, seed, log_scale):
    y = np.random.default_rng(seed).normal(size=n) * 10.0**log_scale
    ts = np.linspace(0.0, length, n)
    h = ts[1] - ts[0]
    rounding = h * np.sum(np.abs(y))
    running = cumulative_simpson_uniform(y, h)
    assert running[0] == 0.0
    oracle = cumulative_simpson(y, x=ts, initial=0.0)
    assert np.max(np.abs(running - oracle)) <= 1e-14 * rounding
    if n % 2:
        assert abs(simpson_uniform(y, h) - simpson(y, x=ts)) <= 1e-14 * rounding
    else:
        with pytest.raises(ValueError):
            simpson_uniform(y, h)


@PROPERTY
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       n=st.integers(5, 200), length=st.floats(0.1, 10.0),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_piecewise_quintic_reproduces_polynomials(coeffs, n, length, where):
    # degree <= 5 is exact, and so are its first and second antiderivatives,
    # also in the half interval of extrapolation past either end
    p = Polynomial(coeffs)
    h = length / n
    f = piecewise_quintic(p(np.linspace(0.0, length, n + 1)), h)
    exact = [p, p.integ(lbnd=0.0), p.integ(2, lbnd=0.0)]
    approx = [f, f.antiderivative(), f.antiderivative().antiderivative()]
    ts = [(length + h) * w - 0.5 * h for w in where]
    for g, q in zip(approx, exact):
        scale = Polynomial(np.abs(q.coef))(length + h)
        assert max(abs(g(t) - q(t)) for t in ts) <= 1e-13 * max(scale, 1e-300)


@PROPERTY
@given(w=st.floats(1.0, 2.0), phase=st.floats(0.0, 2.0 * math.pi),
       length=st.floats(2.0, 3.0))
def test_antiderivative_converges_at_sixth_order(w, phase, length):
    # a local quintic (p = 5) errs by O(h^6) in its integral: halving h
    # divides the error by ~2^(p+1) = 64
    ts = np.linspace(0.0, length, 97)
    exact = (math.cos(phase) - np.cos(w * ts + phase)) / w

    def error(n):
        mesh = np.linspace(0.0, length, n + 1)
        anti = piecewise_quintic(np.sin(w * mesh + phase), length / n).antiderivative()
        return max(abs(anti(t) - e) for t, e in zip(ts, exact))

    assert 64.0 * 0.85 < error(16) / error(32) < 64.0 * 1.2
