import math

import numpy as np
import pytest

from nswp import ForceTrajectory, PhysicalConstants, Polynomial, Sinusoid
from nswp.errors import RangeError

CONSTS = PhysicalConstants()


def test_rest():
    # a packet at rest is the zero polynomial
    traj = Polynomial((0.0,))
    assert traj.eval(3.7) == (0.0, 0.0, 0.0)


def test_sinusoid_at_zero():
    traj = Sinusoid(amplitude=1.0, omega=2.0)
    d, d_dot, d_ddot = traj.eval(0.0)
    assert d == 0.0
    assert d_dot == pytest.approx(2.0)
    assert d_ddot == pytest.approx(0.0)


def test_uniform_acceleration():
    # d = a t^2 / 2 with a = A/m = 1: (2, 2, 1) at t = 2
    traj = Polynomial((0.0, 0.0, 0.5))
    assert traj.eval(2.0) == (2.0, 2.0, 1.0)


def test_polynomial():
    traj = Polynomial((0.0, 1.0, 0.5))
    d, d_dot, d_ddot = traj.eval(2.0)
    assert d == pytest.approx(4.0)
    assert d_dot == pytest.approx(3.0)
    assert d_ddot == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Polynomial((1.0, 2.0))


def test_polynomial_matches_numpy_polynomial_bit_for_bit():
    # the demo's quartic round trip against numpy's Polynomial and its
    # derivatives, rebuilt at every t
    coeffs = (0.0, 0.0, 16.0, -32.0, 20.0, -4.0)
    traj = Polynomial(coeffs)
    p = np.polynomial.Polynomial(coeffs)
    for t in (0.0, 0.37, 1.0, 1.618, 2.0):
        assert traj.eval(t) == (float(p(t)), float(p.deriv(1)(t)), float(p.deriv(2)(t)))


def all_kinds():
    return [
        Sinusoid(amplitude=2.0, omega=1.3),
        Polynomial((0.0, 0.0, 0.35)),
        Polynomial((0.0, 0.2, -0.1, 0.05)),
        ForceTrajectory(0.5, lambda t: 0.3 * np.sin(2.0 * t), CONSTS, t_max=4.0),
    ]


def test_derivative_consistency():
    # central difference of d matches d_dot, and of d_dot matches d_ddot
    h = 1e-6
    for traj in all_kinds():
        for t in (0.5, 1.2, 2.4):
            fd_v = (traj.d(t + h) - traj.d(t - h)) / (2 * h)
            fd_a = (traj.d_dot(t + h) - traj.d_dot(t - h)) / (2 * h)
            scale_v = max(abs(traj.d_dot(t)), 1.0)
            d_ddot = traj.eval(t)[2]
            scale_a = max(abs(d_ddot), 1.0)
            assert abs(fd_v - traj.d_dot(t)) / scale_v < 1e-6
            assert abs(fd_a - d_ddot) / scale_a < 1e-6


def test_eval_takes_an_array_of_times():
    # element by element the one-time values; no time gives three empty arrays
    times = np.array([0.0, 0.5, 1.2, 2.4])
    for traj in all_kinds():
        columns = traj.eval(times)
        assert len(columns) == 3 and all(c.shape == times.shape for c in columns)
        for i, t in enumerate(times):
            assert tuple(c[i] for c in columns) == pytest.approx(traj.eval(t), rel=1e-15, abs=0.0)
        assert all(c.shape == (0,) for c in traj.eval(np.array([])))


def test_force_trajectory_on_an_array_is_its_scalar_calls():
    traj = ForceTrajectory(0.5, lambda t: 0.3 * np.sin(2.0 * t), CONSTS, t_max=4.0)
    times = np.linspace(0.0, 4.0, 301)
    columns = traj.eval(times)
    scalar = np.array([traj.eval(t) for t in times.tolist()]).T
    for column, calls in zip(columns, scalar):
        assert np.array_equal(column, calls)


def test_all_kinds_start_at_origin():
    for traj in all_kinds():
        assert abs(traj.d(0.0)) < 1e-12


def test_force_trajectory_zero_force():
    A = 0.5
    traj = ForceTrajectory(A, np.zeros_like, CONSTS, t_max=10.0)
    # the closed form d = a t^2 / 2, a = A/m
    ref = Polynomial((0.0, 0.0, 0.5 * A / CONSTS.mass))
    for t in np.linspace(0.0, 10.0, 21):
        (d, d_dot, d_ddot), (r, r_dot, r_ddot) = traj.eval(t), ref.eval(t)
        assert abs(d - r) < 1e-10
        assert abs(d_dot - r_dot) < 1e-10
        assert abs(d_ddot - r_ddot) < 1e-12


def test_force_trajectory_constant_force():
    A, F0 = 0.5, 0.3
    traj = ForceTrajectory(A, lambda t: np.full_like(t, F0), CONSTS, t_max=5.0)
    for t in np.linspace(0.0, 5.0, 11):
        assert abs(traj.d(t) - 0.5 * (A + F0) * t**2) < 1e-10


def test_force_trajectory_sinusoidal_force():
    # m d_ddot = A + sin t with d(0) = d_dot(0) = 0 integrates to
    # d = A t^2/2 + t - sin t (m = 1)
    A = 0.5
    traj = ForceTrajectory(A, np.sin, CONSTS, t_max=6.0)
    for t in np.linspace(0.0, 6.0, 13):
        assert abs(traj.d(t) - (0.5 * A * t**2 + t - math.sin(t))) < 1e-9
        assert abs(traj.d_dot(t) - (A * t + 1.0 - math.cos(t))) < 1e-9
        assert abs(traj.eval(t)[2] - (A + math.sin(t))) < 1e-12


def test_force_trajectory_rejects_t_outside_cache():
    # the cached antiderivatives end at t_max; extrapolating the end piece
    # gives d(10) = 126.0 here, against the exact 10 - sin(10) = 10.54
    traj = ForceTrajectory(0.0, np.sin, CONSTS, t_max=2.0)
    assert abs(traj.d(2.0) - (2.0 - math.sin(2.0))) < 1e-9
    # an array is refused if any of its times is, and so is a NaN
    for t in (10.0, 2.0 + 1e-6, -1e-6, np.nan, np.array([0.5, 2.0 + 1e-6]),
              np.array([-1e-6, 1.0])):
        with pytest.raises(RangeError):
            traj.eval(t)


def test_force_trajectory_range_error_names_the_first_bad_time():
    traj = ForceTrajectory(0.0, np.sin, CONSTS, t_max=2.0)
    for bad in (-1e-6, np.nan):
        ts = np.linspace(0.0, 2.0, 301)
        ts[[250, 260]] = bad, 3.0
        with pytest.raises(RangeError) as exc_info:
            traj.eval(ts)
        message = str(exc_info.value)
        assert f"t={bad} " in message and "[0, 2.0]" in message
        assert len(message) < 80
