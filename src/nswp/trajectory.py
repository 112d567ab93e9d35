"""Designed packet motion d(t) with consistent first and second derivatives.

Derivatives are analytic for the closed-form kinds; numerical noise in
d_dot or d_ddot would corrupt the supporting potential and the phase, so
finite differencing is never used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import RangeError
from .grids import PhysicalConstants
from .quadrature import cumulative_antiderivative


class Trajectory:
    """Base: subclasses implement eval(t) -> (d, d_dot, d_ddot) for one
    time t or an array of times, each of the three shaped like t."""

    kind = "abstract"

    def eval(self, t):
        raise NotImplementedError

    def d(self, t):
        return self.eval(t)[0]

    def d_dot(self, t):
        return self.eval(t)[1]


@dataclass(frozen=True)
class Polynomial(Trajectory):
    """d(t) = sum c_k t^k; the constant term must vanish so d(0) = 0."""

    coeffs: tuple

    kind = "polynomial"

    def __post_init__(self):
        if self.coeffs and self.coeffs[0] != 0.0:
            raise ValueError("polynomial trajectory must have d(0) = 0")
        d = np.asarray(self.coeffs, dtype=float)
        d_dot = P.polyder(d)
        # the coefficients of d, d_dot and d_ddot, formed once
        object.__setattr__(self, "_series", (d, d_dot, P.polyder(d_dot)))

    def eval(self, t):
        return tuple(P.polyval(t, c) for c in self._series)


@dataclass(frozen=True)
class Sinusoid(Trajectory):
    """d(t) = A sin(omega t), so d(0) = 0."""

    amplitude: float
    omega: float

    kind = "sinusoid"

    def eval(self, t):
        a, w = self.amplitude, self.omega
        return (a * np.sin(w * t), a * w * np.cos(w * t), -a * w**2 * np.sin(w * t))


class ForceTrajectory(Trajectory):
    """Motion satisfying m * d_ddot = A + F(t), with d(0) = d_dot(0) = 0.

    d(t) = A t^2/(2m) + (1/m) * double integral of F, via cumulative
    antiderivatives cached to 1e-11 on [0, t_max]; a t outside that range
    raises RangeError. F takes a time or an array of times, and so does
    ``eval``.
    """

    kind = "from_force"

    def __init__(self, A: float, F, consts: PhysicalConstants, t_max: float = 10.0):
        self.A = float(A)
        self.F = F
        self.m = consts.mass
        self.t_max = float(t_max)
        self._int_f = cumulative_antiderivative(F, self.t_max, 1e-11)
        self._int2_f = self._int_f.antiderivative()

    def _check_range(self, t) -> None:
        if not np.all((t >= 0.0) & (t <= self.t_max)):
            raise RangeError(f"t={t} outside cached force range [0, {self.t_max}]")

    def eval(self, t):
        self._check_range(t)
        m = self.m
        d = 0.5 * self.A * t**2 / m + self._int2_f(t) / m
        d_dot = (self.A * t + self._int_f(t)) / m
        d_ddot = (self.A + self.F(t)) / m
        return (d, d_dot, d_ddot)
