"""Time evolution under an arbitrary V(x, t): the exact evolution of a
reference Hamiltonian in its sine-DVR eigenbasis between Dirichlet walls,
composed to fourth order where V moves, and Strang split-step Fourier with
an absorbing mask.

``propagate`` runs one loop for both boundaries, walls when the config's
``mask`` is None and an absorbing mask otherwise. Each step splits H(t) into
a fixed part, prepared once per run, and the diagonal remainder
dV = V - V_ref, applied exactly as half kicks exp(-i dV h / 2 hbar) around
the fixed part over h (Strang, SIAM J. Numer. Anal. 5, 506 (1968)).

Between walls (``mask`` None): the fixed part over h is
exp(-i h H_ref / hbar) for the sine-DVR Hamiltonian H_ref = T + V_ref,
V_ref = V(t_start + dt/2), with T the Colbert-Miller kinetic matrix
(``grids.kinetic_matrix``). One dense ``numpy.linalg.eigh`` gives
H_ref = U diag(E) U^T (``grids.hamiltonian_eigenpairs``, shared with the
eigensolver). If V at every step midpoint is V_ref, the run is
exp(-i k dt H_ref / hbar) after k steps, so every snapshot is
U (exp(-i E k dt / hbar) * U^T psi0), one product for all of them, and the
run takes no step: a static V is exact in time at any dt, its V_ref need
only be finite, and its dt is only the interval between snapshots. If V
moves at any step, the run steps from t_start, and each step of dt is
Yoshida's symmetric triple composition S(w1 dt) S(w0 dt) S(w1 dt) of that
split step S (Phys. Lett. A 150, 262 (1990); w1 = 1/(2 - 2^(1/3)),
w0 = 1 - 2 w1 < 0), with the kicks at t + w1 dt/2, t + dt/2 and
t + dt - w1 dt/2 and the two dense matrices U diag(exp(-i E w dt / hbar)) U^T
built once per pass: unitary up to round-off, and fourth order in dt. No
a-priori guard bounds dt; instead a second pass at 2 dt (dt/2 for an odd
number of steps) gives Richardson's estimate of the final state's step
error, |Psi_dt - Psi_2dt| / 15 relative to its peak, which the report
carries as ``step_error_estimate``; past ``STEP_TOLERANCE`` it raises
AccuracyError, and a state that is not finite (a V that is not)
ConfigurationError. The snapshots fill the rows of one array; the dense
basis stops at ``grids.MAX_DENSE_POINTS``.

An ``AbsorbingMask`` (non-normalizable Airy runs): the grid is read as one
period of a periodic domain, V_ref = 0, each step is one split step of dt
with its kicks at t + dt/2, and the fixed part is the exact kinetic phase
exp(-i hbar k^2 dt / 2m) in ``numpy.fft`` space (Feit, Fleck & Steiger,
J. Comput. Phys. 47, 412 (1982)); after the second kick comes a
multiplicative cos^2-ramp mask. Every step where V is not zero passes the
step guard dt * max|V| / hbar < 0.5 first. For V = -F(t) x the splitting
error is a global phase only ([T, [T, V]] = 0 and [V, [V, T]] is a
constant), so its steps can be long: the Airy runs step at dt = 1e-2, where
F sampled at the step midpoints leaves a global error near
T dt^2 |F''| / 24 ~ 1e-5, below the ~1.6e-4 density floor that the mask and
the check window set.

One check tests every snapshot against its boundary; each boundary gives
it only a predicate over a block of snapshots and its message: amplitude at
the outermost cells, which would wrap around under the mask, or, between
walls, amplitude at the edge cells. Every route checks snapshot 0 before
its first product or step, then the product's snapshots as one batch or
each stepped one as it is made. The first that fails raises
``BoundaryError`` with its t, and the run ends there as it does at t_end:
the snapshots kept are measured as one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import AccuracyError, BoundaryError, ConfigurationError, RangeError
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
    ``snapshots`` reads them as ``WaveField`` views, one per row at its time.
    A run that steps between walls sets ``step_error_estimate``, the
    Richardson estimate of its final state's step error relative to its
    peak; ``to_dict`` writes the metric columns only."""

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
    step_error_estimate: float | None = None

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


_COLUMNS = tuple(f.name for f in fields(RunReport)
                 if f.name not in ("grid", "snapshot_values", "step_error_estimate"))


# a step of the masked stepper needs dt * max|V| / hbar below this
_STEP_GUARD = 0.5
MAX_STEPS = 10**6  # the longest run any config may take
# the largest Richardson estimate of its final state's step error, relative
# to max|Psi|, that a run stepping between walls may end with. In every row
# of studies/trap_step_error.py (the modulated trap over eps and dt, the
# quartic round trip) the estimate reads 0.91 to 1.06 of the true error, so
# a run that passes errs by at most about 1.1e-4 of its peak
STEP_TOLERANCE = 1e-4
# Yoshida's symmetric triple composition S(w1 h) S(w0 h) S(w1 h) of a
# symmetric second-order step S is fourth order (Phys. Lett. A 150, 262
# (1990)); w0 < 0, a step back
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# each substep's weight and kick time, in units of the step from its start
_SUBSTEPS = ((_W1, 0.5 * _W1), (_W0, 0.5), (_W1, 1.0 - 0.5 * _W1))


def _step_guard(v, dt: float, consts: PhysicalConstants) -> None:
    """The masked stepper's step guard, dt * max|V| / hbar < 0.5."""
    # written so that a NaN in V fails the guard too
    if not abs(dt) * np.max(np.abs(v)) / consts.hbar < _STEP_GUARD:
        raise ConfigurationError(
            f"dt * max|V| / hbar >= {_STEP_GUARD} or V not finite; reduce the time step"
        )


def _evolution_matrix(energies: np.ndarray, vectors: np.ndarray, dt: float,
                      hbar: float) -> np.ndarray:
    """exp(-i dt H / hbar) for H = U diag(E) U^T as one dense complex matrix,
    its real and imaginary parts each one real product with U^T."""
    angle = (-dt / hbar) * energies
    matrix = np.empty(vectors.shape, dtype=complex)
    matrix.real = (vectors * np.cos(angle)) @ vectors.T
    matrix.imag = (vectors * np.sin(angle)) @ vectors.T
    return matrix


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
    """exp(-i dV dt / 2 hbar), the half kick of a step of dt."""
    return _phases((-0.5 * dt / consts.hbar) * dv)


def propagate(
    initial: WaveField,
    v_fn: Callable[[np.ndarray, float], np.ndarray],
    config: PropagationConfig,
    consts: PhysicalConstants = PhysicalConstants(),
) -> RunReport:
    """Evolve ``initial`` from ``config.t_start`` to t_end, recording a
    snapshot every ``snapshot_stride`` steps and at t_end.

    Between Dirichlet walls (see the module docstring), V_ref =
    V(t_start + dt/2): if V at every step midpoint is V_ref, every snapshot
    comes from one product in the eigenbasis of T + V_ref and no step runs;
    otherwise each step from t_start is Yoshida's composition of three
    substeps, each half kicks of V - V_ref around the exact evolution of
    T + V_ref, and a second pass at 2 dt (dt/2 for an odd number of steps)
    gives the Richardson estimate of the final state's step error,
    ``step_error_estimate``. An estimate past ``STEP_TOLERANCE`` raises
    AccuracyError carrying it. Once all snapshots are in, their norm and
    observables under ``v_fn`` are measured as one batch. Under an
    absorbing mask each step is Strang's, half kicks of V(t + dt/2) around
    the kinetic phase, after the step guard, with the mask after the second
    kick, and the report records the norm only. Every route checks snapshot
    0 against its boundary before its first product or step, then each
    snapshot made; the first that fails raises BoundaryError carrying the
    report up to it. The shape deviation and H-tilde residual columns are
    left empty: the ``verifier`` measures them from the snapshots.
    ``initial.time`` must be ``config.t_start``.
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
    rows[0] = initial.values

    def v_at(t: float) -> np.ndarray:
        return np.asarray(v_fn(x, t), dtype=float)

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
        message = "wave packet hit the boundary at t={t:.6g} (relative edge amplitude {ratio:.2e})"

        def hit(block: np.ndarray):
            """The rows that pile amplitude onto the edge cells, their edge
            amplitude and their peak. Every route between walls is unitary
            to round-off, so a packet that reaches a wall reflects and keeps
            its norm: only the edge can show it."""
            mod = np.abs(block)
            edge, peak = np.maximum(mod[:, 1], mod[:, -2]), np.max(mod, axis=1)
            return edge > 1e-3 * peak, edge, peak
    else:
        peak0 = float(np.max(np.abs(initial.values)))
        message = ("wave packet wrapped around the periodic domain at t={t:.6g} "
                   "(edge amplitude {ratio:.2e} of the initial peak); "
                   "widen or strengthen the absorbing mask")

        def hit(block: np.ndarray):
            """The rows with amplitude at the outermost cells, which would
            wrap around the periodic domain, that amplitude and the initial
            peak."""
            edge = np.maximum(np.abs(block[:, 0]), np.abs(block[:, -1]))
            return ~(edge <= 1e-2 * peak0), edge, np.full(len(edge), peak0)

    def check(lo: int, hi: int) -> None:
        """BoundaryError at the first of snapshots lo..hi-1 that ``hit``
        finds, with the report cut there."""
        for blk in row_blocks(hi - lo):
            first = lo + blk.start
            found, edge, peak = hit(rows[first:lo + blk.stop])
            if found.any():
                j = int(np.argmax(found))
                raise BoundaryError(message.format(t=times[first + j], ratio=edge[j] / peak[j]),
                                    partial_report=measured(first + j + 1))

    check(0, 1)
    static = False
    if dirichlet:
        # a copy: a v_fn may refill and return one buffer
        v_ref = np.array(v_fn(x, t_start + 0.5 * dt), dtype=float)
        # the product is exact at any dt: V_ref need only be finite
        if not np.isfinite(v_ref).all():
            raise ConfigurationError("V is not finite")
        energies, vectors = hamiltonian_eigenpairs(grid, v_ref, consts)
        # V has not moved while its bytes are V_ref's (a NaN, or a -0.0 for
        # a 0.0, counts as a move, which costs steps, not accuracy)
        ref_bytes = v_ref.tobytes()
        static = all(v_at((t_start + i * dt) + 0.5 * dt).tobytes() == ref_bytes
                     for i in range(1, n_steps))

        def states(h: float, count: int):
            """The state after each of ``count`` composed steps of ``h``
            from t_start."""
            values = initial.values
            matrices = {w: _evolution_matrix(energies, vectors, w * h, consts.hbar)
                        for w in (_W1, _W0)}
            for i in range(count):
                t = t_start + i * h
                for w, at in _SUBSTEPS:
                    kick = _half_kick(v_at(t + at * h) - v_ref, w * h, consts)
                    values = kick * (matrices[w] @ (kick * values))
                yield values
    else:
        kinetic = _kinetic_phase(grid, dt, consts)
        mask = _mask_profile(grid, config.mask, dt)

        def states(h: float, count: int):
            """The state after each of ``count`` Strang steps of ``h`` from
            t_start, the mask after each."""
            values = initial.values
            for i in range(count):
                v = v_at((t_start + i * h) + 0.5 * h)
                kick = None
                if v.any():  # a NaN counts too
                    _step_guard(v, h, consts)
                    kick = _half_kick(v, h, consts)
                    values = kick * values
                values = np.fft.ifft(kinetic * np.fft.fft(values))
                if kick is not None:
                    values = kick * values
                values *= mask
                yield values

    estimate = None
    if static:
        _eigen_evolution(initial.values, energies, vectors, steps[1:], dt, consts.hbar,
                         rows[1:])
        check(1, len(steps))
    else:
        row = 1
        for i, values in enumerate(states(dt, n_steps), 1):
            if i == steps[row]:
                rows[row] = values
                check(row, row + 1)
                row += 1
        if dirichlet:
            estimate = _richardson(rows[-1], states, dt, n_steps)
            # written so that a NaN fails too
            if not estimate <= STEP_TOLERANCE:
                if not np.isfinite(estimate):
                    raise ConfigurationError("V is not finite at some step")
                raise AccuracyError(
                    f"step error estimate {estimate:.2e} of max|Psi| at dt = {dt:.6g} "
                    f"exceeds STEP_TOLERANCE = {STEP_TOLERANCE:g}; reduce the time step",
                    best_estimate=estimate)
    report = measured(len(steps))
    report.step_error_estimate = estimate
    return report


def _richardson(final: np.ndarray, states, dt: float, n_steps: int) -> float:
    """Richardson's estimate of the step error of ``final``, the state after
    ``n_steps`` fourth-order steps of ``dt``, relative to its peak: a second
    pass of ``states(h, count)`` at h = 2 dt (dt/2 for an odd ``n_steps``)
    over the same span, and |Psi_dt - Psi_h| / |1 - (h/dt)^4|, which is
    |Psi_dt - Psi_2dt| / 15 (16/15 |Psi_dt - Psi_dt/2|)."""
    ratio = 2.0 if n_steps % 2 == 0 else 0.5
    other = final
    for other in states(ratio * dt, round(n_steps / ratio)):
        pass
    return float(np.max(np.abs(final - other)) / np.max(np.abs(final))
                 / abs(1.0 - ratio**4))
