"""Designed packet motion d(t) with consistent first and second derivatives.

Derivatives are analytic for the closed-form kinds; numerical noise in
d_dot or d_ddot would corrupt the supporting potential and the phase, so
finite differencing is never used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import RangeError
from .grids import PhysicalConstants
from .quadrature import cumulative_antiderivative


class Trajectory:
    """Base: subclasses implement eval(t) -> (d, d_dot, d_ddot)."""

    kind = "abstract"

    def eval(self, t: float):
        raise NotImplementedError

    def d(self, t: float) -> float:
        return self.eval(t)[0]

    def d_dot(self, t: float) -> float:
        return self.eval(t)[1]

    def d_ddot(self, t: float) -> float:
        return self.eval(t)[2]


@dataclass(frozen=True)
class Rest(Trajectory):
    kind = "rest"

    def eval(self, t):
        return (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Polynomial(Trajectory):
    """d(t) = sum c_k t^k; the constant term must vanish so d(0) = 0."""

    coeffs: tuple

    kind = "polynomial"

    def __post_init__(self):
        if self.coeffs and self.coeffs[0] != 0.0:
            raise ValueError("polynomial trajectory must have d(0) = 0")

    def eval(self, t):
        p = np.polynomial.Polynomial(self.coeffs)
        return (float(p(t)), float(p.deriv(1)(t)), float(p.deriv(2)(t)))


@dataclass(frozen=True)
class Sinusoid(Trajectory):
    """d(t) = A sin(omega t + phase) - A sin(phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    kind = "sinusoid"

    def eval(self, t):
        a, w, p = self.amplitude, self.omega, self.phase
        return (
            a * np.sin(w * t + p) - a * np.sin(p),
            a * w * np.cos(w * t + p),
            -a * w**2 * np.sin(w * t + p),
        )


@dataclass(frozen=True)
class UniformAcceleration(Trajectory):
    """d(t) = a t^2 / 2."""

    a: float

    kind = "uniform_acceleration"

    def eval(self, t):
        return (0.5 * self.a * t**2, self.a * t, self.a)


class TabulatedSpline(Trajectory):
    """Clamped cubic spline through (t, d) knots; C2 derivatives.

    Endpoint velocities must be supplied (clamped boundary conditions).
    The first knot must be (0, 0).
    """

    kind = "tabulated_spline"

    def __init__(self, t_knots, d_knots, v_start: float, v_end: float):
        t_knots = np.asarray(t_knots, dtype=float)
        d_knots = np.asarray(d_knots, dtype=float)
        if t_knots[0] != 0.0 or d_knots[0] != 0.0:
            raise ValueError("spline trajectory must start at (t, d) = (0, 0)")
        self.t_min = float(t_knots[0])
        self.t_max = float(t_knots[-1])
        self._spline = CubicSpline(
            t_knots, d_knots, bc_type=((1, v_start), (1, v_end))
        )
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)

    def eval(self, t):
        if t < self.t_min or t > self.t_max:
            raise RangeError(f"t={t} outside tabulated range [{self.t_min}, {self.t_max}]")
        return (float(self._spline(t)), float(self._d1(t)), float(self._d2(t)))


class ForceTrajectory(Trajectory):
    """Motion satisfying m * d_ddot = A + F(t), with d(0) = d_dot(0) = 0.

    d(t) = A t^2/(2m) + (1/m) * double integral of F, via cached cumulative
    antiderivatives on [0, t_max]; t outside that range raises RangeError.
    """

    kind = "from_force"

    def __init__(self, A: float, F, consts: PhysicalConstants, tol: float = 1e-11,
                 t_max: float = 10.0):
        self.A = float(A)
        self.F = F
        self.m = consts.mass
        self.t_max = float(t_max)
        self._int_f = cumulative_antiderivative(F, self.t_max, tol)
        self._int2_f = self._int_f.antiderivative()

    def _check_range(self, t: float) -> None:
        if t < 0.0 or t > self.t_max:
            raise RangeError(f"t={t} outside cached force range [0, {self.t_max}]")

    def int_f(self, t: float) -> float:
        """Cached integral_0^t F."""
        self._check_range(t)
        return float(self._int_f(t))

    def eval(self, t):
        self._check_range(t)
        m = self.m
        d = 0.5 * self.A * t**2 / m + float(self._int2_f(t)) / m
        d_dot = (self.A * t + float(self._int_f(t))) / m
        d_ddot = (self.A + self.F(t)) / m
        return (d, d_dot, d_ddot)


def trajectory_from_force(A: float, F, consts: PhysicalConstants,
                          tol: float = 1e-11, t_max: float = 10.0) -> ForceTrajectory:
    """Trajectory driven by a constant force A plus time-dependent F(t)."""
    return ForceTrajectory(A, F, consts, tol=tol, t_max=t_max)
