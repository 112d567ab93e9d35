"""Closed-form nonspreading packets from (V, f, E_f, d(t), G(t)).

Given a shape f with energy E_f, a designed motion d(t) and a gauge G(t),
the supporting potential is

    V_nswp(x, t) = V(x - d(t)) - m * d_ddot(t) * x + G(t)

and the packet is Psi(x, t) = f(x - d(t)) exp(i [phi1(t) x + phi0(t)]) with
phi1 = m d_dot / hbar and phi0 the accumulated global phase. Every function
of time here (d and its derivatives, G, phi1, phi0) takes one time or an
array of times. The packet carries phi0 from a cache built on a refined time
mesh; ``NswpSolution.phi0_direct``, one adaptive integral per time, is an
independent reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .airy import ai_values
from .eigensolver import EigenPair, StaticPotential
from .errors import RangeError
from .grids import (Grid1D, PhysicalConstants, WaveField, fd5_first, fd5_second, interior,
                    shift_values, sine_apply)
from .quadrature import cumulative_antiderivative, integrate_time
from .trajectory import Trajectory

# the residual checks' default margin, a length in x: it keeps one cell of
# the default sho grid (dx = 16/127) out at each edge
RESIDUAL_MARGIN = 0.125


@dataclass(frozen=True)
class GaugeFunction:
    """x-independent additive potential term G(t)."""

    kind: str
    fn: Callable

    def __call__(self, t):
        return self.fn(t)

    @classmethod
    def zero(cls) -> "GaugeFunction":
        return cls("zero", lambda t: 0.0)


def gauge_linear_case(A: float, traj: Trajectory) -> GaugeFunction:
    """G(t) = A d(t): cancels the moving-well offset of V = A x."""
    return GaugeFunction("linear_case", lambda t: A * traj.d(t))


def gauge_sho_case(omega: float, traj: Trajectory, consts: PhysicalConstants) -> GaugeFunction:
    """G(t) = -m omega^2 d(t)^2 / 2: makes the SHO supporting potential static."""
    return GaugeFunction("sho_case",
                         lambda t: -0.5 * consts.mass * omega**2 * traj.d(t) ** 2)


class Shape:
    """Shape function f with its energy E_f."""

    def values_at(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def on_grid_shifted(self, grid: Grid1D, d) -> np.ndarray:
        """Samples of f(x - d) on the grid: n of them for one shift d, one
        row of n per shift for an array of shifts."""
        raise NotImplementedError


@dataclass(frozen=True)
class SampledShape(Shape):
    """Grid-sampled real shape (an eigensolver mode); shifted spectrally."""

    field: WaveField
    energy: float

    @classmethod
    def from_eigenpair(cls, pair: EigenPair) -> "SampledShape":
        return cls(field=pair.shape, energy=pair.energy)

    def values_at(self, x):
        # direct evaluation off-grid is not supported for sampled shapes
        raise NotImplementedError("sampled shapes evaluate on their own grid")

    def on_grid_shifted(self, grid: Grid1D, d) -> np.ndarray:
        if grid != self.field.grid:
            raise RangeError("sampled shape must be evaluated on its own grid")
        d = np.asarray(d, dtype=float)
        if np.any(np.abs(d) >= 0.5 * grid.width):
            raise RangeError(f"shift {d} leaves the shape window")
        f = self.field.values.real
        shifted = shift_values(f, d, grid.dx)
        # a zero shift is the samples themselves, not their FFT round trip
        shifted[d == 0.0] = f
        # the spectral shift is periodic: where x - d lies off the grid it
        # holds the periodic image f(x - d -+ L), not the mode's f = 0 there
        source = grid.x - d[..., None]
        shifted[(source < grid.x_min) | (source > grid.x_max)] = 0.0
        return shifted


@dataclass(frozen=True)
class AiryShape(Shape):
    """Closed-form Airy mode for V = A x, f(x) = Ai[(2Am/hbar^2)^(1/3) (x - E_f/A)];
    evaluated pointwise, never interpolated, and not normalizable.

    Raises RangeError unless A > 0: for A < 0 the scale is complex and for
    A = 0 the offset E_f/A is undefined.
    """

    A: float
    energy: float
    consts: PhysicalConstants

    def __post_init__(self):
        if not self.A > 0:
            raise RangeError(f"Airy shape requires A > 0, got {self.A}")

    @property
    def scale(self) -> float:
        return (2.0 * self.A * self.consts.mass / self.consts.hbar**2) ** (1.0 / 3.0)

    def values_at(self, x):
        return ai_values(self.scale * (np.asarray(x) - self.energy / self.A))

    def on_grid_shifted(self, grid: Grid1D, d) -> np.ndarray:
        return self.values_at(grid.x - np.asarray(d)[..., None])


class NswpSolution:
    """Immutable closed-form NSWP; phi0 cache is built once on demand, to
    1e-11 on [0, t_max]."""

    def __init__(self, shape: Shape, trajectory: Trajectory, gauge: GaugeFunction,
                 consts: PhysicalConstants = PhysicalConstants(),
                 t_max: float = 10.0):
        self.shape = shape
        self.trajectory = trajectory
        self.gauge = gauge
        self.consts = consts
        self.E_f = shape.energy
        self.t_max = float(t_max)
        self._phi0_anti = None

    def _phi0_integrand(self, t):
        m = self.consts.mass
        d_dot = self.trajectory.d_dot(t)
        return self.E_f + self.gauge(t) + 0.5 * m * d_dot**2

    def phi1(self, t):
        return self.consts.mass * self.trajectory.d_dot(t) / self.consts.hbar

    def phi0(self, t):
        """Cached phi0(t) = -(1/hbar) integral_0^t (E_f + G + m d_dot^2/2),
        for a time or an array of times. Raises RangeError if any t lies
        outside [0, t_max], where the cache would extrapolate its end
        pieces."""
        if not np.all((t >= -1e-9) & (t <= self.t_max + 1e-9)):
            raise RangeError(f"t={t} outside the phi0 cache range [0, {self.t_max}]")
        if self._phi0_anti is None:
            self._phi0_anti = cumulative_antiderivative(
                self._phi0_integrand, self.t_max, 1e-11
            )
        return -self._phi0_anti(t) / self.consts.hbar

    def phi0_direct(self, t: float) -> float:
        """phi0 at one time t in [0, t_max] by one adaptive quadrature to
        1e-12 over [0, t], independent of the cache; other t raise
        RangeError. A reference for tests: the packet carries ``phi0``."""
        if not 0.0 <= t <= self.t_max:
            raise RangeError(f"phi0_direct needs t in [0, {self.t_max}], got {t}")
        return -integrate_time(self._phi0_integrand, 0.0, t, 1e-12) / self.consts.hbar


def v_nswp(sol: NswpSolution, v: StaticPotential, x, t: float):
    """Supporting potential V(x - d(t)) - m d_ddot(t) x + G(t)."""
    d, _, d_ddot = sol.trajectory.eval(t)
    x = np.asarray(x, dtype=float)
    return v(x - d) - sol.consts.mass * d_ddot * x + sol.gauge(t)


def phase(sol: NswpSolution, x, t: float):
    """phi(x, t) = phi1(t) x + phi0(t); affine in x."""
    return sol.phi1(t) * np.asarray(x, dtype=float) + sol.phi0(t)


def analytic_psi(sol: NswpSolution, grid: Grid1D, t: float) -> WaveField:
    """Psi(x, t) = f(x - d(t)) exp(i phi(x, t)) sampled on the grid."""
    d = sol.trajectory.d(t)
    f = sol.shape.on_grid_shifted(grid, d)
    psi = f * np.exp(1j * phase(sol, grid.x, t))
    return WaveField(grid=grid, values=psi, time=t)


def tdse_residual(sol: NswpSolution, v: StaticPotential, grid: Grid1D, t: float,
                  margin: float = RESIDUAL_MARGIN, drop_phi0: bool = False,
                  dirichlet: bool = True) -> float:
    """Max |i hbar dPsi/dt - H Psi| for the analytic packet over the points
    at least ``margin``, a length in x, from either edge
    (``grids.interior``).

    Time derivative by 5-point central FD at step 1e-5. The spatial second
    derivative is that of the sine series between walls one dx beyond the
    grid (``grids.sine_apply``) when ``dirichlet``, else the 5-point
    stencil, whose two end points at each side are never read.
    ``drop_phi0`` deliberately corrupts the global phase (falsification
    control).
    """
    hbar, m = sol.consts.hbar, sol.consts.mass

    def psi_at(tt: float) -> np.ndarray:
        values = analytic_psi(sol, grid, tt).values
        if drop_phi0:
            values = values * np.exp(-1j * sol.phi0(tt))
        return values

    h = 1e-5
    stack = np.array([psi_at(t + k * h) for k in (-2, -1, 0, 1, 2)])
    dpsi_dt = fd5_first(stack, h)[2]
    psi = stack[2]
    d2 = sine_apply(psi, grid.dx, lambda k: -k * k) if dirichlet else fd5_second(psi, grid.dx)

    vloc = v_nswp(sol, v, grid.x, t)
    residual = 1j * hbar * dpsi_dt - (-(hbar**2) / (2 * m) * d2 + vloc * psi)
    sel = interior(grid, margin)
    if not dirichlet:
        sel = slice(max(sel.start, 2), min(sel.stop, grid.n - 2))
    return float(np.max(np.abs(residual[sel])))
