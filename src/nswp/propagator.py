"""Crank-Nicolson time evolution under an arbitrary V(x, t).

The step is the (1,1) Pade approximant of the evolution exponential with
the potential evaluated at the midpoint time, so the scheme is second
order in dt for time-dependent potentials and exactly unitary up to the
tridiagonal-solve round-off. Non-normalizable (Airy) runs use a cos^2-ramp
multiplicative absorbing mask instead of hard Dirichlet walls.

The implicit half step 1 + i dt H / (2 hbar) is LU-factored with LAPACK
``zgttrf`` once per distinct midpoint potential and each step is solved
with ``zgttrs``. A static V is therefore factored once per run; a
time-dependent V is refactored (and its dt guard re-checked) every step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import BoundaryError, ConfigurationError
from .grids import (Grid1D, PhysicalConstants, WaveField, observables,
                    shift_values)


@dataclass(frozen=True)
class Dirichlet:
    kind = "dirichlet"


@dataclass(frozen=True)
class AbsorbingMask:
    """Multiplicative cos^2-ramp absorber of given width at both edges."""

    width: float
    strength: float

    kind = "absorbing_mask"


@dataclass(frozen=True)
class PropagationConfig:
    dt: float
    t_end: float
    grid: Grid1D
    snapshot_stride: int = 1
    boundary: object = Dirichlet()
    t_start: float = 0.0

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= self.t_start:
            raise ConfigurationError("need dt > 0 and t_end > t_start")
        steps = (self.t_end - self.t_start) / self.dt
        if abs(steps - self.n_steps) > 1e-9 * steps:
            raise ConfigurationError(
                f"t_end - t_start = {self.t_end - self.t_start:.12g} is not a "
                f"whole number of steps dt = {self.dt:.12g}"
            )
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        if isinstance(self.boundary, AbsorbingMask):
            if not 0 < self.boundary.width < 0.5 * self.grid.width:
                raise ConfigurationError("mask width must be < half the domain")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))


@dataclass
class RunReport:
    """Metric time series (plus retained snapshot fields) from one run."""

    times: list = field(default_factory=list)
    norm: list = field(default_factory=list)
    centroid: list = field(default_factory=list)
    momentum_mean: list = field(default_factory=list)
    energy_mean: list = field(default_factory=list)
    shape_deviation: list = field(default_factory=list)
    htilde_residual: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "times": list(self.times),
            "norm": list(self.norm),
            "centroid": list(self.centroid),
            "momentum_mean": list(self.momentum_mean),
            "energy_mean": list(self.energy_mean),
            "shape_deviation": list(self.shape_deviation),
            "htilde_residual": list(self.htilde_residual),
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def crank_nicolson_step(psi: WaveField, v_mid: np.ndarray, dt: float,
                        consts: PhysicalConstants) -> WaveField:
    """One CN step; ``v_mid`` holds the potential at the midpoint time."""
    step = _cn_factor(v_mid, dt, psi.grid.n, psi.grid.dx, consts)
    return WaveField(grid=psi.grid, values=_cn_solve(step, psi.values),
                     time=psi.time + dt)


@dataclass(frozen=True)
class _CNStep:
    """Explicit half-step coefficients and LU factors of the implicit one."""

    rhs_diag: np.ndarray
    off: complex
    lu: tuple


def _cn_factor(v_mid, dt, n, dx, consts) -> _CNStep:
    v_mid = np.broadcast_to(np.asarray(v_mid, dtype=float), (n,))
    # written so that a NaN in V fails the guard too
    if not abs(dt) * np.max(np.abs(v_mid)) / consts.hbar < 0.5:
        raise ConfigurationError(
            "dt * max|V| / hbar >= 0.5 or V not finite; reduce the time step"
        )
    kin = consts.hbar**2 / (consts.mass * dx**2)
    lam = 1j * dt / (2.0 * consts.hbar)
    diag = lam * (kin + v_mid)
    off = lam * (-0.5 * kin)

    lower = np.full(n - 1, off)
    *lu, info = zgttrf(lower, 1.0 + diag, lower.copy(),
                       overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise ConfigurationError(f"zgttrf failed (info={info}): singular CN matrix")
    return _CNStep(rhs_diag=1.0 - diag, off=off, lu=tuple(lu))


def _cn_solve(step: _CNStep, values: np.ndarray) -> np.ndarray:
    # rhs = (I - i dt/(2 hbar) H) psi
    rhs = step.rhs_diag * values
    rhs[:-1] -= step.off * values[1:]
    rhs[1:] -= step.off * values[:-1]
    out, info = zgttrs(*step.lu, rhs, overwrite_b=1)
    if info != 0:
        raise ConfigurationError(f"zgttrs failed (info={info})")
    return out


def _mask_profile(grid: Grid1D, mask: AbsorbingMask, dt: float) -> np.ndarray:
    x = grid.x
    s = np.zeros(grid.n)
    left = grid.x_min + mask.width
    right = grid.x_max - mask.width
    s = np.maximum((left - x) / mask.width, (x - right) / mask.width)
    s = np.clip(s, 0.0, 1.0)
    ramp = np.sin(0.5 * np.pi * s) ** 2
    return np.exp(-mask.strength * dt * ramp)


def propagate(
    initial: WaveField,
    v_fn: Callable[[np.ndarray, float], np.ndarray],
    config: PropagationConfig,
    consts: PhysicalConstants = PhysicalConstants(),
    reference_density: Optional[Callable[[float], np.ndarray]] = None,
    shape_reference: str = "reference",
    window: Optional[tuple] = None,
    htilde_fn: Optional[Callable[[WaveField, float], float]] = None,
    compute_observables: bool = True,
) -> RunReport:
    """Step CN to t_end, recording metrics every ``snapshot_stride`` steps.

    ``reference_density(t)`` returns the expected translated |f|^2 on the
    grid; with ``shape_reference='centroid'`` the initial density is instead
    translated to the measured centroid (used by spreading controls).
    ``window`` restricts the shape-deviation sup to [a, b].
    """
    grid = config.grid
    if initial.grid != grid:
        raise ConfigurationError("initial field grid does not match config grid")
    x = grid.x
    dt = config.dt
    n_steps = config.n_steps
    dirichlet = isinstance(config.boundary, Dirichlet)
    mask = None
    if isinstance(config.boundary, AbsorbingMask):
        mask = _mask_profile(grid, config.boundary, dt)

    if window is not None:
        sel = (x >= window[0]) & (x <= window[1])
    else:
        sel = slice(None)

    rho0 = initial.density()
    ref_peak = None
    if reference_density is not None:
        ref_peak = float(np.max(reference_density(config.t_start)))
    elif shape_reference == "centroid":
        ref_peak = float(np.max(rho0))

    report = RunReport()
    values = initial.values.copy()
    t = config.t_start
    norm0 = None
    centroid0 = None

    def record(values, t):
        nonlocal norm0, centroid0
        psi = WaveField(grid=grid, values=values, time=t)
        report.times.append(t)
        if compute_observables:
            obs = observables(psi, v_fn(x, t), consts)
            report.norm.append(obs.norm)
            report.centroid.append(obs.centroid)
            report.momentum_mean.append(obs.momentum_mean)
            report.energy_mean.append(obs.energy_mean)
        else:
            nrm = float(np.sqrt(np.trapezoid(np.abs(values) ** 2, dx=grid.dx)))
            report.norm.append(nrm)
            report.centroid.append(float("nan"))
            report.momentum_mean.append(float("nan"))
            report.energy_mean.append(float("nan"))
        if norm0 is None:
            norm0 = report.norm[0]
            centroid0 = report.centroid[0]

        rho = np.abs(values) ** 2
        if reference_density is not None:
            ref = reference_density(t)
            report.shape_deviation.append(
                float(np.max(np.abs(rho[sel] - ref[sel])) / ref_peak)
            )
        elif shape_reference == "centroid" and compute_observables:
            shift = report.centroid[-1] - centroid0
            ref = shift_values(rho0.astype(complex), shift, grid.dx).real
            report.shape_deviation.append(
                float(np.max(np.abs(rho[sel] - ref[sel])) / ref_peak)
            )
        else:
            report.shape_deviation.append(float("nan"))

        if htilde_fn is not None:
            report.htilde_residual.append(float(htilde_fn(psi, t)))
        else:
            report.htilde_residual.append(float("nan"))
        report.snapshots.append(psi)

        if dirichlet:
            # CN with Dirichlet walls is exactly unitary, so a boundary hit
            # shows up as amplitude piling onto the edge cells (reflection),
            # not as norm loss; check both anyway.
            edge = max(abs(values[1]), abs(values[-2]))
            if report.norm[-1] < norm0 * (1.0 - 1e-3) or edge > 1e-3 * np.max(np.abs(values)):
                raise BoundaryError(
                    f"wave packet hit the boundary at t={t:.6g} "
                    f"(relative edge amplitude {edge / np.max(np.abs(values)):.2e})",
                    partial_report=report,
                )

    record(values, t)
    step = v_last = None
    for i in range(n_steps):
        v_mid = np.asarray(v_fn(x, t + 0.5 * dt), dtype=float)
        if step is None or not np.array_equal(v_mid, v_last):
            step = _cn_factor(v_mid, dt, grid.n, grid.dx, consts)
            v_last = v_mid.copy()
        values = _cn_solve(step, values)
        if mask is not None:
            values = values * mask
        t = config.t_start + (i + 1) * dt
        if (i + 1) % config.snapshot_stride == 0 or i + 1 == n_steps:
            record(values, t)
    return report
