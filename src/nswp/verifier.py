"""Executable checks of the Hamiltonian decomposition H = H_tilde + H_c.

H_tilde = -hbar^2/(2m) d^2/dx^2 + V(x - d(t)) - d_dot(t) P leaves the
instantaneous packet invariant with eigenvalue E_tilde = E_f - m d_dot^2/2;
H_c = d_dot P - m d_ddot x + G generates the motion. The checks below
verify the eigenvalue relation residually, the three-factor infinitesimal
evolution (shift operator times two phase factors), and the classical
equations of motion at the level of expectation values (Ehrenfest form --
a wave code cannot assert operator identities directly).

A run's measurements beyond the norm and the observables are taken here,
from the snapshots that ``propagate`` keeps: ``shape_deviation`` (the
density against a reference, the rigidity claim) and ``htilde_residual``
(the eigenvalue relation). Each takes all of a run's snapshots, the rows
of its ``snapshot_values``, in one call and transforms them along the
last axis, ``grids.BLOCK_ROWS`` rows at a time; one field is the one-row
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constructor import RESIDUAL_MARGIN, NswpSolution, analytic_psi
from .eigensolver import StaticPotential
from .errors import ConfigurationError
from .grids import (Grid1D, PhysicalConstants, fd5_first, interior, row_blocks, shift_field,
                    shift_values, sine_apply)
from .propagator import RunReport
from .trajectory import Trajectory

# shape-deviation thresholds of the negative claim: the modulated trap must
# exceed the first, its static control stay under the second
SPREAD_THRESHOLD = 1e-2
CONTROL_THRESHOLD = 5e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    @classmethod
    def below(cls, name: str, value: float, bound: float, note: str = "") -> "CheckResult":
        """Passes when ``value`` < ``bound``."""
        return cls(name, value, bound, value < bound, note)

    @classmethod
    def above(cls, name: str, value: float, bound: float, note: str = "") -> "CheckResult":
        """Passes when ``value`` > ``bound``."""
        return cls(name, value, bound, value > bound, note)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "note": self.note,
        }


def htilde_residual(values: np.ndarray, grid: Grid1D, v: StaticPotential, traj: Trajectory,
                    consts: PhysicalConstants, E_f: float, t):
    """|| [H_tilde - E_tilde] psi || / ||psi|| over the points at least
    ``RESIDUAL_MARGIN``, a length in x, from either edge
    (``grids.interior``), with psi'' and psi' those of the sine series
    between the grid's Dirichlet walls: the kinetic and -d_dot P terms are
    one ``grids.sine_apply`` of the symbol hbar^2 k^2 / 2m - hbar d_dot k.

    ``values`` is one field of n samples at the time ``t``, which gives a
    float, or a (snapshots x n) array at the times ``t``, which gives one
    residual per row, taken ``grids.BLOCK_ROWS`` rows at a time."""
    hbar, m = consts.hbar, consts.mass
    rows = np.atleast_2d(values)
    d, d_dot, _ = (np.atleast_1d(c) for c in traj.eval(t))
    e_tilde = E_f - 0.5 * m * d_dot**2
    sel = interior(grid, RESIDUAL_MARGIN)
    out = np.empty(len(rows))
    for blk in row_blocks(len(rows)):
        psi, d_dot_b = rows[blk], d_dot[blk, None]
        r = sine_apply(psi, grid.dx, lambda k: (hbar**2 / (2 * m) * k - hbar * d_dot_b) * k)
        r += (v(grid.x - d[blk, None]) - e_tilde[blk, None]) * psi
        out[blk] = (np.linalg.norm(r[:, sel], axis=-1)
                    / np.linalg.norm(psi[:, sel], axis=-1))
    return float(out[0]) if np.ndim(values) == 1 else out


def shape_deviation(report: RunReport, reference: Callable[[np.ndarray], np.ndarray],
                    sel=slice(None)) -> list[float]:
    """Per snapshot, the sup over the grid points ``sel`` of
    |rho - rho_ref(t)|, relative to the peak of rho_ref at the first
    snapshot. ``reference(times)`` gives rho_ref at the points ``sel``, one
    row per time; it is asked for ``grids.BLOCK_ROWS`` snapshots at a
    time."""
    times = np.asarray(report.times)
    peak = float(np.max(reference(times[:1])))
    return _deviation(report, lambda blk: reference(times[blk]), sel, peak)


def rigid_shape_deviation(report: RunReport) -> list[float]:
    """``shape_deviation`` against the first snapshot's density translated
    rigidly by each snapshot's measured centroid shift, the most charitable
    reference for a packet that may spread, relative to that density's
    peak. Needs the centroid column, which Dirichlet runs record."""
    rho0 = np.abs(report.snapshot_values[0]) ** 2
    shift = np.asarray(report.centroid) - report.centroid[0]
    # the peak of rho0 itself: its zero-shift FFT round trip can be an ulp off
    return _deviation(report, lambda blk: shift_values(rho0, shift[blk], report.grid.dx),
                      slice(None), float(np.max(rho0)))


def _deviation(report: RunReport, reference_rows: Callable[[slice], np.ndarray], sel,
               peak: float) -> list[float]:
    """sup over the points ``sel`` of |rho - rho_ref| / ``peak`` for each
    snapshot, ``reference_rows(blk)`` giving rho_ref at those points for
    the snapshots ``blk``, ``grids.BLOCK_ROWS`` at a time."""
    rows = report.snapshot_values
    out = np.empty(len(rows))
    for blk in row_blocks(len(rows)):
        dev = np.abs(rows[blk][:, sel])
        dev *= dev
        dev -= reference_rows(blk)
        out[blk] = np.max(np.abs(dev, out=dev), axis=-1)
    return (out / peak).tolist()


def infinitesimal_evolution_check(sol: NswpSolution, grid: Grid1D, t: float,
                                  dt: float, drop_force_factor: bool = False) -> float:
    """Error of the three-factor evolution against the analytic packet.

    Builds  exp(-i (E_tilde + G) dt / hbar) * exp(i m d_ddot dt x / hbar)
            * [shift by d_dot dt]  applied to Psi(., t)
    and returns max |. - Psi(., t + dt)|; O(dt^2) when the factorization is
    correct. ``drop_force_factor`` omits the x-linear phase factor, which
    degrades the error to O(dt) whenever d_ddot != 0 (falsification control).
    """
    hbar, m = sol.consts.hbar, sol.consts.mass
    _, d_dot, d_ddot = sol.trajectory.eval(t)
    e_tilde = sol.E_f - 0.5 * m * d_dot**2

    psi_t = analytic_psi(sol, grid, t)
    shifted = shift_field(psi_t, d_dot * dt)
    phase = np.full(grid.n, -(e_tilde + sol.gauge(t)) * dt / hbar)
    if not drop_force_factor:
        phase = phase + m * d_ddot * dt * grid.x / hbar
    approx = shifted.values * np.exp(1j * phase)
    exact = analytic_psi(sol, grid, t + dt).values
    return float(np.max(np.abs(approx - exact)))


def classical_motion_check(report: RunReport, traj: Trajectory,
                           consts: PhysicalConstants) -> list[CheckResult]:
    """Ehrenfest checks: <x> tracks d(t), <P> tracks m d_dot, d<P>/dt tracks
    m d_ddot. The rate is the 5-point difference of the <P> series, so the
    snapshots must be uniformly spaced, at least five of them."""
    times = np.asarray(report.times)
    h = (times[-1] - times[0]) / (len(times) - 1) if len(times) >= 5 else 0.0
    if not (h > 0 and np.allclose(np.diff(times), h, rtol=1e-9, atol=0.0)):
        raise ConfigurationError(
            "momentum_rate_tracks_force needs at least 5 uniformly spaced snapshots")
    centroid = np.asarray(report.centroid)
    momentum = np.asarray(report.momentum_mean)

    d, d_dot, d_ddot = traj.eval(times)

    dev_x = float(np.max(np.abs(centroid - centroid[0] - d)))
    dev_p = float(np.max(np.abs(momentum - consts.mass * d_dot)))
    # two snapshots at each end have no 5-point difference
    dp_dt = fd5_first(momentum, h)[2:-2]
    dev_f = float(np.max(np.abs(dp_dt - consts.mass * d_ddot[2:-2])))

    return [
        CheckResult.below("centroid_tracks_trajectory", dev_x, 1e-4),
        CheckResult.below("momentum_tracks_m_ddot", dev_p, 1e-4),
        CheckResult.below("momentum_rate_tracks_force", dev_f, 1e-3),
    ]


def energy_split_check(report: RunReport, sol: NswpSolution, v: StaticPotential,
                       consts: PhysicalConstants) -> list[CheckResult]:
    """<H> = E_f + m d_dot^2/2 + V(d): quantum structural energy plus the
    classical energy of a particle riding the trajectory.

    The recorded <H> must have been measured with the scenario's static
    supporting potential (for the SHO family that is m omega^2 x^2 / 2).
    Not applicable to the non-normalizable Airy family.
    """
    energy = np.asarray(report.energy_mean)
    d, d_dot, _ = sol.trajectory.eval(np.asarray(report.times))
    expected = sol.E_f + 0.5 * consts.mass * d_dot**2 + v(d)
    dev = float(np.max(np.abs(energy - expected)))
    drift = float(np.max(energy) - np.min(energy))
    return [
        CheckResult.below("energy_split_value", dev, 2e-4, note="max |<H> - (E_f + E_cl)|"),
        CheckResult.below("energy_constant_in_time", drift, 2e-4),
    ]


def no_nswp_for_time_dependent_frequency(modulated: RunReport, control: RunReport) -> dict:
    """Demonstration record for the negative claim: a time-modulated SHO
    frequency destroys the nonspreading property, the static control keeps it.
    """
    times = np.asarray(modulated.times)
    dev = np.asarray(modulated.shape_deviation)
    exceeded = bool(np.any(dev > SPREAD_THRESHOLD))
    first_t = float(times[np.argmax(dev > SPREAD_THRESHOLD)]) if exceeded else None
    control_max = float(np.max(control.shape_deviation))
    return {
        "modulated_max_deviation": float(np.max(dev)),
        "spread_threshold": SPREAD_THRESHOLD,
        "spread_detected": exceeded,
        "first_exceed_time": first_t,
        "control_max_deviation": control_max,
        "control_threshold": CONTROL_THRESHOLD,
        "control_ok": control_max < CONTROL_THRESHOLD,
        "pass": exceeded and control_max < CONTROL_THRESHOLD,
    }
