"""Time evolution under an arbitrary V(x, t): the exact evolution of a
reference Hamiltonian in its sine-DVR eigenbasis between Dirichlet walls,
Strang split-step Fourier with an absorbing mask.

``propagate`` runs one loop for both boundaries. Each step splits H(t) into
a fixed part, prepared once per run, and the diagonal remainder
dV = V(t + dt/2) - V_ref, applied exactly as two half kicks
exp(-i dV dt / 2 hbar) around the fixed part (Strang, SIAM J. Numer. Anal.
5, 506 (1968)). Where dV is zero everywhere the step is the fixed part
alone. The step guard dt * max|V| / hbar < 0.5 runs on V_ref and on the full
V(t + dt/2) of every step where it moved off V_ref.

``Dirichlet``: the fixed part is exp(-i dt H_ref / hbar) for the sine-DVR
Hamiltonian H_ref = T + V_ref, V_ref = V(t_start + dt/2), with T the
Colbert-Miller kinetic matrix (``grids.kinetic_matrix``). One dense
``numpy.linalg.eigh`` gives H_ref = U diag(E) U^T, and the step is the one
complex matrix U diag(exp(-i E dt / hbar)) U^T, unitary up to round-off. A
static V is therefore exact in time at any dt, and a time-dependent V is
second order, through the kicks. The dense basis stops at
``grids.MAX_DENSE_POINTS``.

``AbsorbingMask`` (non-normalizable Airy runs): the grid is read as one
period of a periodic domain, V_ref = 0 and the fixed part is the exact
kinetic phase exp(-i hbar k^2 dt / 2m) in ``numpy.fft`` space (Feit, Fleck
& Steiger, J. Comput. Phys. 47, 412 (1982)); after the second kick comes a
multiplicative cos^2-ramp mask. For V = -F(t) x the splitting error is a
global phase only ([T, [T, V]] = 0 and [V, [V, T]] is a constant), so its
steps can be long: the Airy runs step at dt = 1e-2, where F sampled at the
step midpoints leaves a global error near T dt^2 |F''| / 24 ~ 1e-5, below
the ~1.6e-4 density floor that the mask and the check window set.
Amplitude that reaches the outermost cells would wrap around to the other
edge; the record step raises ``BoundaryError`` when it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import BoundaryError, ConfigurationError, RangeError
from .grids import (Grid1D, PhysicalConstants, WaveField, _dense_points, _wavenumbers,
                    kinetic_matrix, observables)


@dataclass(frozen=True)
class Dirichlet:
    """Walls at both grid edges: the wave function vanishes beyond them."""


@dataclass(frozen=True)
class AbsorbingMask:
    """Multiplicative cos^2-ramp absorber of given width at both edges."""

    width: float
    strength: float


@dataclass(frozen=True)
class PropagationConfig:
    """Steps of ``dt`` from ``t_start`` to ``t_end``. ``boundary`` picks the
    fixed part of each step: ``Dirichlet()`` the exact sine-DVR evolution
    of V(t_start + dt/2), built once per run; an ``AbsorbingMask`` the
    kinetic phase on the periodic grid, then the mask. More than
    ``MAX_STEPS`` steps raise RangeError, and a Dirichlet grid of more than
    ``grids.MAX_DENSE_POINTS`` points raises RangeError."""

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
        # an inf or NaN step count fails here too
        if not steps < MAX_STEPS + 0.5:
            raise RangeError(
                f"dt = {self.dt:.12g} from t_start = {self.t_start:.12g} to "
                f"t_end = {self.t_end:.12g} takes {steps:.3g} steps, more than "
                f"the budget of {MAX_STEPS}"
            )
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
            if not self.boundary.strength >= 0:
                raise ConfigurationError("mask strength must be >= 0")
        elif isinstance(self.boundary, Dirichlet):
            _dense_points(self.grid.n)
        else:
            raise ConfigurationError(f"unknown boundary {self.boundary!r}")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))


@dataclass
class RunReport:
    """Metric time series (plus retained snapshot fields) from one run.

    ``propagate`` fills the times, the norm, the Dirichlet observables and
    the snapshots; ``shape_deviation`` and ``htilde_residual`` stay empty
    until a scenario measures them from the snapshots (``verifier``)."""

    times: list = field(default_factory=list)
    norm: list = field(default_factory=list)
    centroid: list = field(default_factory=list)
    momentum_mean: list = field(default_factory=list)
    energy_mean: list = field(default_factory=list)
    shape_deviation: list = field(default_factory=list)
    htilde_residual: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The metric columns the run recorded; an empty one is left out."""
        return {f.name: list(getattr(self, f.name)) for f in fields(self)
                if f.name != "snapshots" and getattr(self, f.name)}


_STEP_GUARD = 0.5  # both steppers need dt * max|V| / hbar below this
MAX_STEPS = 10**6  # the longest run any config may take


def _guarded_potential(v_mid, dt: float, n: int, consts: PhysicalConstants) -> np.ndarray:
    """``v_mid`` as n real samples, after the step guard of both steppers,
    dt * max|V| / hbar < 0.5."""
    v_mid = np.asarray(v_mid, dtype=float)
    if v_mid.shape != (n,):
        v_mid = np.broadcast_to(v_mid, (n,))
    # written so that a NaN in V fails the guard too
    if not abs(dt) * np.max(np.abs(v_mid)) / consts.hbar < _STEP_GUARD:
        raise ConfigurationError(
            f"dt * max|V| / hbar >= {_STEP_GUARD} or V not finite; reduce the time step"
        )
    return v_mid


def guarded_dt(dt: float, v_max: float, t_span: float, consts: PhysicalConstants) -> float:
    """A default ``dt`` cut to dt/k with the smallest whole k that keeps
    dt max|V| / hbar under the step guard. Raises RangeError when the cut
    run over ``t_span`` would take more than MAX_STEPS steps."""
    # a float k: an overflowing ratio stays inf (or NaN) and fails the budget
    k = (dt * v_max / (_STEP_GUARD * consts.hbar)) // 1 + 1
    if not t_span * k / dt <= MAX_STEPS:
        raise RangeError(
            f"hbar = {consts.hbar:g} and mass = {consts.mass:g} need "
            f"{t_span * k / dt:.3g} steps under the step guard, more than "
            f"the budget of {MAX_STEPS}"
        )
    return dt / k


def _eigen_step(v_ref, dt: float, grid: Grid1D, consts: PhysicalConstants) -> np.ndarray:
    """exp(-i dt (T + V_ref) / hbar) as one dense complex matrix, from the
    eigenpairs of the sine-DVR Hamiltonian, after the step guard on V_ref."""
    v_ref = _guarded_potential(v_ref, dt, grid.n, consts)
    h = kinetic_matrix(grid.n, grid.dx, consts)
    h[np.diag_indices(grid.n)] += v_ref
    energies, vectors = np.linalg.eigh(h)
    angle = (-dt / consts.hbar) * energies
    phase = np.empty(grid.n, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return (vectors * phase) @ vectors.T


def edge_ramp(grid: Grid1D, width: float) -> np.ndarray:
    """Ramp coordinate s: 0 in the interior, rising linearly to 1 at either
    edge across the outer ``width`` of the grid."""
    x = grid.x
    s = np.maximum((grid.x_min + width - x) / width, (x - (grid.x_max - width)) / width)
    return np.clip(s, 0.0, 1.0)


def _mask_profile(grid: Grid1D, mask: AbsorbingMask, dt: float) -> np.ndarray:
    ramp = np.sin(0.5 * np.pi * edge_ramp(grid, mask.width)) ** 2
    return np.exp(-mask.strength * dt * ramp)


def _kinetic_phase(grid: Grid1D, dt: float, consts: PhysicalConstants) -> np.ndarray:
    """exp(-i hbar k^2 dt / 2m) on the ``numpy.fft`` wavenumbers of the grid."""
    k = _wavenumbers(grid.n, grid.dx, False)
    return np.exp(-0.5j * consts.hbar * dt / consts.mass * k**2)


def _half_kick(dv, dt, n, consts) -> np.ndarray:
    """exp(-i dV dt / 2 hbar), filled by a real cos and sin (about half the
    cost of a complex exp). Unguarded: |dV| may exceed the |V| the guard
    passed."""
    angle = (-0.5 * dt / consts.hbar) * dv
    kick = np.empty(n, dtype=complex)
    np.cos(angle, out=kick.real)
    np.sin(angle, out=kick.imag)
    return kick


def propagate(
    initial: WaveField,
    v_fn: Callable[[np.ndarray, float], np.ndarray],
    config: PropagationConfig,
    consts: PhysicalConstants = PhysicalConstants(),
) -> RunReport:
    """Step ``initial`` from ``config.t_start`` to t_end, recording a
    snapshot every ``snapshot_stride`` steps and at t_end.

    Each step is half kicks of V(t + dt/2) - V_ref around a fixed part
    prepared once (see the module docstring). Between Dirichlet walls the
    fixed part is the exact evolution of T + V_ref, V_ref = V(t_start + dt/2),
    over dt, and each
    snapshot records the norm and the observables under ``v_fn``; under an
    absorbing mask V_ref = 0, the fixed part is the kinetic phase, the mask
    follows the second kick and each snapshot records the norm only. The
    shape deviation and H-tilde residual columns are left empty: the
    ``verifier`` measures them from the snapshots. ``initial.time`` must be
    ``config.t_start``.
    """
    grid = config.grid
    if initial.grid != grid:
        raise ConfigurationError("initial field grid does not match config grid")
    if abs(initial.time - config.t_start) > 1e-12:
        raise ConfigurationError(
            f"initial field is at t = {initial.time:.12g} but the run starts at "
            f"t_start = {config.t_start:.12g}"
        )
    x = grid.x
    dt = config.dt
    n_steps = config.n_steps
    dirichlet = isinstance(config.boundary, Dirichlet)
    peak0 = float(np.max(np.abs(initial.values)))
    report = RunReport()

    def record(values, t):
        psi = WaveField(grid=grid, values=values, time=t)
        report.times.append(t)
        report.snapshots.append(psi)
        if dirichlet:
            obs = observables(psi, v_fn(x, t), consts)
            report.norm.append(obs.norm)
            report.centroid.append(obs.centroid)
            report.momentum_mean.append(obs.momentum_mean)
            report.energy_mean.append(obs.energy_mean)
            # the Dirichlet step is unitary, so a
            # boundary hit shows up as amplitude piling onto the edge cells
            # (reflection), not as norm loss; check both anyway.
            edge = max(abs(values[1]), abs(values[-2]))
            if (report.norm[-1] < report.norm[0] * (1.0 - 1e-3)
                    or edge > 1e-3 * np.max(np.abs(values))):
                raise BoundaryError(
                    f"wave packet hit the boundary at t={t:.6g} "
                    f"(relative edge amplitude {edge / np.max(np.abs(values)):.2e})",
                    partial_report=report,
                )
        else:
            report.norm.append(float(np.sqrt(grid.dx * np.sum(np.abs(values) ** 2))))
            # the split step's domain is periodic: amplitude the mask left
            # at the edges would come back in at the other side
            edge = max(abs(values[0]), abs(values[-1]))
            if not edge <= 1e-2 * peak0:
                raise BoundaryError(
                    f"wave packet wrapped around the periodic domain at t={t:.6g} "
                    f"(edge amplitude {edge / peak0:.2e} of the initial peak); "
                    "widen or strengthen the absorbing mask",
                    partial_report=report,
                )

    values = initial.values.copy()
    t = config.t_start
    record(values, t)
    if dirichlet:
        # a copy: a v_fn may refill and return one buffer
        v_ref = np.array(v_fn(x, t + 0.5 * dt), dtype=float)
        step = _eigen_step(v_ref, dt, grid, consts)
    else:
        v_ref = 0.0
        kinetic = _kinetic_phase(grid, dt, consts)
        mask = _mask_profile(grid, config.boundary, dt)
    for i in range(n_steps):
        v_mid = np.asarray(v_fn(x, t + 0.5 * dt), dtype=float)
        dv = v_mid - v_ref
        kick = None
        if dv.any():  # V moved off V_ref; a NaN counts as a move
            _guarded_potential(v_mid, dt, grid.n, consts)
            kick = _half_kick(dv, dt, grid.n, consts)
            values = kick * values
        if dirichlet:
            values = step @ values
        else:
            values = np.fft.ifft(kinetic * np.fft.fft(values))
        if kick is not None:
            values = kick * values
        if not dirichlet:
            values *= mask
        t = config.t_start + (i + 1) * dt
        if (i + 1) % config.snapshot_stride == 0 or i + 1 == n_steps:
            record(values, t)
    return report
