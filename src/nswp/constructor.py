"""Closed-form nonspreading packets from (V, f, E_f, d(t), G(t)).

Given a shape f with energy E_f, a designed motion d(t) and a gauge G(t),
the supporting potential is

    V_nswp(x, t) = V(x - d(t)) - m * d_ddot(t) * x + G(t)

and the packet is Psi(x, t) = f(x - d(t)) exp(i [phi1(t) x + phi0(t)]) with
phi1 = m d_dot / hbar and phi0 the accumulated global phase. phi0 is cached
on a refined time mesh and can also be evaluated by direct adaptive
quadrature for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .airy import ai_values
from .eigensolver import EigenPair, StaticPotential
from .errors import RangeError
from .grids import Grid1D, PhysicalConstants, WaveField, fd5_second, shift_values
from .quadrature import cumulative_antiderivative, integrate_time
from .trajectory import Trajectory


@dataclass(frozen=True)
class GaugeFunction:
    """x-independent additive potential term G(t)."""

    kind: str
    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    @classmethod
    def zero(cls) -> "GaugeFunction":
        return cls("zero", lambda t: 0.0)

    @classmethod
    def custom(cls, fn, kind: str = "custom") -> "GaugeFunction":
        return cls(kind, fn)


def gauge_linear_case(A: float, traj: Trajectory) -> GaugeFunction:
    """G(t) = A d(t): cancels the moving-well offset of V = A x."""
    return GaugeFunction.custom(lambda t: A * traj.d(t), kind="linear_case")


def gauge_sho_case(omega: float, traj: Trajectory, consts: PhysicalConstants) -> GaugeFunction:
    """G(t) = -m omega^2 d(t)^2 / 2: makes the SHO supporting potential static."""
    return GaugeFunction.custom(
        lambda t: -0.5 * consts.mass * omega**2 * traj.d(t) ** 2, kind="sho_case"
    )


class Shape:
    """Shape function f with its energy E_f."""

    def values_at(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def on_grid_shifted(self, grid: Grid1D, d: float) -> np.ndarray:
        """Samples of f(x - d) on the grid."""
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

    def on_grid_shifted(self, grid: Grid1D, d: float) -> np.ndarray:
        if grid != self.field.grid:
            raise RangeError("sampled shape must be evaluated on its own grid")
        if abs(d) >= 0.5 * grid.width:
            raise RangeError(f"shift {d} leaves the shape window")
        if d == 0.0:
            return self.field.values.real.copy()
        return shift_values(self.field.values.real, d, grid.dx).real


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

    def on_grid_shifted(self, grid: Grid1D, d: float) -> np.ndarray:
        return self.values_at(grid.x - d)


class NswpSolution:
    """Immutable closed-form NSWP; phi0 cache is built once on demand."""

    def __init__(self, shape: Shape, trajectory: Trajectory, gauge: GaugeFunction,
                 consts: PhysicalConstants = PhysicalConstants(),
                 t_max: float = 10.0, phi0_tol: float = 1e-11):
        self.shape = shape
        self.trajectory = trajectory
        self.gauge = gauge
        self.consts = consts
        self.E_f = shape.energy
        self.t_max = float(t_max)
        self.phi0_tol = float(phi0_tol)
        self._phi0_anti = None

    def _phi0_integrand(self, t: float) -> float:
        m = self.consts.mass
        d_dot = self.trajectory.d_dot(t)
        return self.E_f + self.gauge(t) + 0.5 * m * d_dot**2

    def phi1(self, t: float) -> float:
        return self.consts.mass * self.trajectory.d_dot(t) / self.consts.hbar

    def phi0(self, t: float) -> float:
        """Cached phi0(t) = -(1/hbar) integral_0^t (E_f + G + m d_dot^2/2)."""
        if self._phi0_anti is None:
            self._phi0_anti = cumulative_antiderivative(
                self._phi0_integrand, self.t_max, self.phi0_tol
            )
        if t > self.t_max + 1e-9:
            raise RangeError(f"t={t} beyond phi0 cache horizon {self.t_max}")
        return -float(self._phi0_anti(t)) / self.consts.hbar

    def phi0_direct(self, t, tol: float = 1e-12):
        """phi0 by direct adaptive quadrature, independent of the cache.

        ``t`` is a time, or an ascending 1-D array of times, in [0, t_max];
        anything else raises RangeError. An array is integrated piece by
        piece over [0, t_0], [t_0, t_1], ... and the pieces summed
        cumulatively, so each stretch of time is integrated once; a scalar
        is the one-piece case and returns a float.

        Primitives: adaptive Simpson (``integrate_time``) of
        E_f + G + m d_dot^2/2, where for a ``ForceTrajectory`` d_dot comes
        from the ``CubicSpline`` antiderivative of F
        (``cumulative_antiderivative``). The nested-integral formula of the
        forced Airy case (``cases.phi0_forced_airy``) uses only cumulative
        and composite Simpson sums on a uniform mesh, so the two routes
        share no primitive.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1 or not np.all((times >= 0.0) & (times <= self.t_max)):
            raise RangeError(f"phi0_direct needs times in [0, {self.t_max}], got {t}")
        ends = np.atleast_1d(times)
        if np.any(np.diff(ends) < 0.0):
            raise RangeError(f"phi0_direct needs ascending times, got {t}")
        starts = np.concatenate(([0.0], ends[:-1]))
        pieces = [integrate_time(self._phi0_integrand, float(a), float(b), tol)
                  for a, b in zip(starts, ends)]
        phi0 = -np.cumsum(pieces) / self.consts.hbar
        return float(phi0[0]) if times.ndim == 0 else phi0


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
                  t_step: float = 1e-5, margin: int = 8,
                  drop_phi0: bool = False) -> float:
    """Max interior |i hbar dPsi/dt - H Psi| for the analytic packet.

    Time derivative by 5-point central FD at t_step; spatial second
    derivative by the 5-point stencil. ``drop_phi0`` deliberately corrupts
    the global phase (falsification control).
    """
    hbar, m = sol.consts.hbar, sol.consts.mass

    def psi_at(tt: float) -> np.ndarray:
        values = analytic_psi(sol, grid, tt).values
        if drop_phi0:
            values = values * np.exp(-1j * sol.phi0(tt))
        return values

    h = t_step
    stack = [psi_at(t + k * h) for k in (-2, -1, 0, 1, 2)]
    dpsi_dt = (stack[0] - 8 * stack[1] + 8 * stack[3] - stack[4]) / (12.0 * h)
    psi = stack[2]
    d2 = fd5_second(psi, grid.dx)

    vloc = v_nswp(sol, v, grid.x, t)
    residual = 1j * hbar * dpsi_dt - (-(hbar**2) / (2 * m) * d2 + vloc * psi)
    lo, hi = max(margin, 2), grid.n - max(margin, 2)
    return float(np.max(np.abs(residual[lo:hi])))
