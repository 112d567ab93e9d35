"""Time evolution under an arbitrary V(x, t): the exact evolution of a
reference Hamiltonian in its sine-DVR eigenbasis between Dirichlet walls,
Strang split-step Fourier with an absorbing mask.

``propagate`` runs one loop for both boundaries, walls when the config's
``mask`` is None and an absorbing mask otherwise. Each step splits H(t) into
a fixed part, prepared once per run, and the diagonal remainder
dV = V(t + dt/2) - V_ref, applied exactly as two half kicks
exp(-i dV dt / 2 hbar) around the fixed part (Strang, SIAM J. Numer. Anal.
5, 506 (1968)). Where dV is zero everywhere the step is the fixed part
alone. The step guard dt * max|V| / hbar < 0.5 runs only where a step runs:
on V_ref when V moves between walls, and on the full V(t + dt/2) of every
step where it moved off V_ref. A V that never moves between walls takes no
step, so its V_ref need only be finite, and its dt is only the interval
between snapshots.

Between walls (``mask`` None): the fixed part is exp(-i dt H_ref / hbar) for
the sine-DVR Hamiltonian H_ref = T + V_ref, V_ref = V(t_start + dt/2), with T
the Colbert-Miller kinetic matrix (``grids.kinetic_matrix``). One dense
``numpy.linalg.eigh`` gives H_ref = U diag(E) U^T
(``grids.hamiltonian_eigenpairs``, shared with the eigensolver). If V at
every step midpoint is V_ref, the run is exp(-i k dt H_ref / hbar) after k
steps, so every snapshot is U (exp(-i E k dt / hbar) * U^T psi0), one
product for all of them, and the run takes no step: a static V is exact in
time at any dt. If V moves at any step, the run steps from t_start, with
the complex matrix U diag(exp(-i E dt / hbar)) U^T as the fixed part,
unitary up to round-off, and the error is second order in dt, through the
kicks. The snapshots fill the rows of one array; the dense basis stops at
``grids.MAX_DENSE_POINTS``.

An ``AbsorbingMask`` (non-normalizable Airy runs): the grid is read as one
period of a periodic domain, V_ref = 0 and the fixed part is the exact
kinetic phase exp(-i hbar k^2 dt / 2m) in ``numpy.fft`` space (Feit, Fleck
& Steiger, J. Comput. Phys. 47, 412 (1982)); after the second kick comes a
multiplicative cos^2-ramp mask. For V = -F(t) x the splitting error is a
global phase only ([T, [T, V]] = 0 and [V, [V, T]] is a constant), so its
steps can be long: the Airy runs step at dt = 1e-2, where F sampled at the
step midpoints leaves a global error near T dt^2 |F''| / 24 ~ 1e-5, below
the ~1.6e-4 density floor that the mask and the check window set.
Each snapshot meets its boundary's check as it is made (the product's as one
batch): amplitude at the outermost cells, which would wrap around under the
mask, or, between walls, lost norm or amplitude at the edge cells. The first
that fails raises ``BoundaryError`` with its t, and the run ends there as it
does at t_end: the snapshots kept are measured as one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import BoundaryError, ConfigurationError, RangeError
from .grids import (Grid1D, PhysicalConstants, WaveField, _dense_points, _phases, _wavenumbers,
                    hamiltonian_eigenpairs, observables, row_blocks)


@dataclass(frozen=True)
class AbsorbingMask:
    """Multiplicative cos^2-ramp absorber of given width at both edges."""

    width: float
    strength: float


@dataclass(frozen=True)
class PropagationConfig:
    """Steps of ``dt`` from ``t_start`` to ``t_end``. ``mask`` picks the
    fixed part of each step: None puts Dirichlet walls at both grid edges
    and makes it the exact sine-DVR evolution of V(t_start + dt/2), built
    once per run; an ``AbsorbingMask`` makes it the kinetic phase on the
    periodic grid, followed by the mask. More than ``MAX_STEPS`` steps raise
    RangeError, and a grid between walls of more than
    ``grids.MAX_DENSE_POINTS`` points raises RangeError."""

    dt: float
    t_end: float
    grid: Grid1D
    snapshot_stride: int = 1
    mask: AbsorbingMask | None = None
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
        if self.mask is None:
            _dense_points(self.grid.n)
        else:
            if not 0 < self.mask.width < 0.5 * self.grid.width:
                raise ConfigurationError("mask width must be < half the domain")
            if not self.mask.strength >= 0:
                raise ConfigurationError("mask strength must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))


@dataclass
class RunReport:
    """Metric time series (plus retained snapshot fields) from one run.

    Each metric column is one float array (a list given is converted), one
    value per snapshot. ``propagate`` fills the times, the norm, the
    Dirichlet observables and the snapshots; ``shape_deviation`` and
    ``htilde_residual`` stay empty until a scenario measures them from the
    snapshots (``verifier``). The snapshots' samples on ``grid`` are the
    rows of one (snapshots x n) complex array, ``snapshot_values``;
    ``snapshots`` reads them as ``WaveField`` views, one per row at its time."""

    times: np.ndarray = ()
    norm: np.ndarray = ()
    centroid: np.ndarray = ()
    momentum_mean: np.ndarray = ()
    energy_mean: np.ndarray = ()
    shape_deviation: np.ndarray = ()
    htilde_residual: np.ndarray = ()
    grid: Grid1D | None = None
    snapshot_values: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=complex))

    def __post_init__(self):
        for name in _COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def snapshots(self) -> list:
        """A ``WaveField`` view of each row of ``snapshot_values``, at its time."""
        return [WaveField(grid=self.grid, values=row, time=t)
                for row, t in zip(self.snapshot_values, self.times)]

    def to_dict(self) -> dict:
        """The metric columns the run recorded, as lists; an empty one is left out."""
        return {name: getattr(self, name).tolist() for name in _COLUMNS
                if len(getattr(self, name))}


_COLUMNS = tuple(f.name for f in fields(RunReport) if f.name not in ("grid", "snapshot_values"))


# a step of either stepper needs dt * max|V| / hbar below this; a V that
# never moves between walls takes no step, and no dt bounds it
_STEP_GUARD = 0.5
MAX_STEPS = 10**6  # the longest run any config may take


def _step_guard(v, dt: float, consts: PhysicalConstants) -> None:
    """The step guard of both steppers, dt * max|V| / hbar < 0.5."""
    # written so that a NaN in V fails the guard too
    if not abs(dt) * np.max(np.abs(v)) / consts.hbar < _STEP_GUARD:
        raise ConfigurationError(
            f"dt * max|V| / hbar >= {_STEP_GUARD} or V not finite; reduce the time step"
        )


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
    _step_guard(v_ref, dt, consts)
    energies, vectors = hamiltonian_eigenpairs(grid, v_ref, consts)
    return (vectors * _phases((-dt / consts.hbar) * energies)) @ vectors.T


def _eigen_evolution(psi0: np.ndarray, energies: np.ndarray, vectors: np.ndarray,
                     steps, dt: float, hbar: float, out: np.ndarray) -> np.ndarray:
    """Row r of ``out`` set to exp(-i k dt H / hbar) psi0 = U (exp(-i E k dt /
    hbar) * U^T psi0), k = ``steps[r]``, for H = U diag(E) U^T; the real and
    imaginary parts each one real product with U^T per block of
    ``BLOCK_ROWS`` rows."""
    re, im = vectors.T @ psi0.real, vectors.T @ psi0.imag
    steps = np.asarray(steps, dtype=float)
    for blk in row_blocks(len(steps)):
        angle = np.outer(steps[blk] * (-dt / hbar), energies)
        cos, sin = np.cos(angle), np.sin(angle)
        rows = out[blk]
        rows.real = (cos * re - sin * im) @ vectors.T
        rows.imag = (sin * re + cos * im) @ vectors.T
    return out


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


def _half_kick(dv, dt, consts) -> np.ndarray:
    """exp(-i dV dt / 2 hbar). Unguarded: |dV| may exceed the |V| the guard
    passed."""
    return _phases((-0.5 * dt / consts.hbar) * dv)


def propagate(
    initial: WaveField,
    v_fn: Callable[[np.ndarray, float], np.ndarray],
    config: PropagationConfig,
    consts: PhysicalConstants = PhysicalConstants(),
) -> RunReport:
    """Evolve ``initial`` from ``config.t_start`` to t_end, recording a
    snapshot every ``snapshot_stride`` steps and at t_end.

    Each step is half kicks of V(t + dt/2) - V_ref around a fixed part
    prepared once (see the module docstring). Between Dirichlet walls the
    fixed part is the exact evolution of T + V_ref, V_ref = V(t_start + dt/2),
    over dt; if V(t + dt/2) is V_ref at every step, every snapshot comes
    from one product in the eigenbasis of T + V_ref and no step runs, and
    otherwise the steps run from t_start. Once all snapshots are in, their
    norm and observables under ``v_fn`` are measured as one batch. Under an
    absorbing mask V_ref = 0, the fixed part is the kinetic phase, the mask
    follows the second kick and the report records the norm only. The shape
    deviation and H-tilde residual columns are left empty: the ``verifier``
    measures them from the snapshots. ``initial.time`` must be
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
    x, dt, t_start, n_steps = grid.x, config.dt, config.t_start, config.n_steps
    dirichlet = config.mask is None
    # the steps a snapshot is taken after: 0, every stride-th, and the last
    steps = [0, *range(config.snapshot_stride, n_steps, config.snapshot_stride), n_steps]
    times = t_start + np.asarray(steps) * dt
    rows = np.empty((len(steps), grid.n), dtype=complex)
    rows[0] = values = initial.values

    def v_mid(i: int) -> np.ndarray:
        """V at the midpoint of step ``i``."""
        return np.asarray(v_fn(x, (t_start + i * dt) + 0.5 * dt), dtype=float)

    def measured(count: int) -> RunReport:
        """The first ``count`` snapshots with their norm and, between walls,
        their observables under ``v_fn``, measured as one batch."""
        if dirichlet:
            v_snap = np.empty((count, grid.n))
            for r in range(count):
                v_snap[r] = v_fn(x, times[r])
            obs = observables(rows[:count], grid, v_snap, consts)
            columns = dict(norm=obs.norm, centroid=obs.centroid,
                           momentum_mean=obs.momentum_mean, energy_mean=obs.energy_mean)
        else:
            columns = dict(norm=[float(np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2)))
                                 for psi in rows[:count]])
        return RunReport(times=times[:count], grid=grid, snapshot_values=rows[:count],
                         **columns)

    if dirichlet:
        norm0 = np.sqrt(grid.dx * np.vdot(initial.values, initial.values).real)

        def check(lo: int, hi: int) -> None:
            """BoundaryError at the first of snapshots lo..hi-1 that hit a
            wall, with the report cut there. The step is unitary, so a hit
            shows up as amplitude piling onto the edge cells (reflection),
            not as norm loss; both count."""
            for blk in row_blocks(hi - lo):
                mod = np.abs(rows[lo + blk.start:lo + blk.stop])
                edge, peak = np.maximum(mod[:, 1], mod[:, -2]), np.max(mod, axis=1)
                norm = np.sqrt(grid.dx * np.vecdot(mod, mod))
                hit = (norm < norm0 * (1.0 - 1e-3)) | (edge > 1e-3 * peak)
                if hit.any():
                    j = int(np.argmax(hit))
                    raise BoundaryError(
                        f"wave packet hit the boundary at t={times[lo + blk.start + j]:.6g} "
                        f"(relative edge amplitude {edge[j] / peak[j]:.2e})",
                        partial_report=measured(lo + blk.start + j + 1),
                    )

        # a copy: a v_fn may refill and return one buffer
        v_ref = np.array(v_fn(x, t_start + 0.5 * dt), dtype=float)
        # the product is exact at any dt: V_ref need only be finite
        if not np.isfinite(v_ref).all():
            raise ConfigurationError("V is not finite")
        # V has not moved while its bytes are V_ref's (a NaN, or a -0.0 for
        # a 0.0, counts as a move, which costs steps, not accuracy)
        ref_bytes = v_ref.tobytes()
        if all(v_mid(i).tobytes() == ref_bytes for i in range(1, n_steps)):
            energies, vectors = hamiltonian_eigenpairs(grid, v_ref, consts)
            _eigen_evolution(initial.values, energies, vectors, steps[1:], dt,
                             consts.hbar, rows[1:])
            check(0, len(steps))
            return measured(len(steps))
        step = _eigen_step(v_ref, dt, grid, consts)
    else:
        v_ref = 0.0
        kinetic = _kinetic_phase(grid, dt, consts)
        mask = _mask_profile(grid, config.mask, dt)
        peak0 = float(np.max(np.abs(values)))

        def check(lo: int, hi: int) -> None:
            """BoundaryError at the first of snapshots lo..hi-1 that holds
            amplitude at the edges, with the report cut there: the split
            step's domain is periodic, so amplitude the mask left at the
            edges would come back in at the other side."""
            for r in range(lo, hi):
                edge = max(abs(rows[r, 0]), abs(rows[r, -1]))
                if not edge <= 1e-2 * peak0:
                    raise BoundaryError(
                        f"wave packet wrapped around the periodic domain at t={times[r]:.6g} "
                        f"(edge amplitude {edge / peak0:.2e} of the initial peak); "
                        "widen or strengthen the absorbing mask",
                        partial_report=measured(r + 1),
                    )
        check(0, 1)

    row = 1
    for i in range(n_steps):
        v = v_mid(i)
        dv = v - v_ref
        kick = None
        if dv.any():  # V moved off V_ref; a NaN counts as a move
            _step_guard(v, dt, consts)
            kick = _half_kick(dv, dt, consts)
            values = kick * values
        if dirichlet:
            values = step @ values
        else:
            values = np.fft.ifft(kinetic * np.fft.fft(values))
        if kick is not None:
            values = kick * values
        if not dirichlet:
            values *= mask
        if i + 1 == steps[row]:
            rows[row] = values
            check(row, row + 1)
            row += 1
    return measured(len(steps))
