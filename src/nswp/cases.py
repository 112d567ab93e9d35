"""End-to-end scenario runs: the Airy packet under a uniform force, free
space its zero-force member; shifted SHO modes; and the three controls
(spreading Gaussian, time-modulated SHO frequency, corrupted phase).

Each run constructs the closed-form packet, self-checks it against the
time-dependent Schrodinger equation, propagates it independently
(the exact sine-DVR step of a reference Hamiltonian between walls,
split-step Fourier under the Airy runs' absorbing mask), and reduces the
result to named pass/fail checks.
The two NSWP families share these steps through ``NswpCase`` and
``run_case`` and add only the checks of their own family.
``SCENARIOS`` is the table of runs the command line offers by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .constructor import (RESIDUAL_MARGIN, AiryShape, NswpSolution, SampledShape,
                          analytic_psi, gauge_linear_case, gauge_sho_case,
                          tdse_residual, v_nswp)
from .eigensolver import StaticPotential, lowest_eigenpairs
from .errors import AccuracyError, ConfigurationError, RangeError
from .grids import (MAX_DENSE_POINTS, Grid1D, PhysicalConstants, WaveField, fd5_first,
                    observables)
from .propagator import (STEP_TOLERANCE, AbsorbingMask, PropagationConfig, RunReport,
                         edge_ramp, propagate)
from .quadrature import cumulative_simpson_uniform, mesh_doubling, simpson_uniform
from .trajectory import ForceTrajectory, Sinusoid
from .verifier import (SPREAD_THRESHOLD, CheckResult, classical_motion_check,
                       energy_split_check, htilde_residual,
                       no_nswp_for_time_dependent_frequency, rigid_shape_deviation,
                       shape_deviation)

# the sho grid at the paper's defaults (``sho_grid``): dx ~ 0.13, where the
# sine DVR resolves the modes n <= 2 to round-off, far inside the 1e-4
# motion and H-tilde tolerances
_SHO_GRID = Grid1D(-8.0, 8.0, 128)
# oscillator lengths of Gaussian tail the sho grid keeps beyond a mode's
# turning point at the largest swing: |f| falls to about 1.5e-8 of its peak
_SHO_TAIL = 5.0
# the Airy runs' propagation grid: the fewest points of those that
# studies/airy_points.py sweeps whose propagated checks hold in every row
# (the packet carries wavenumbers of about 6 to 7, pi / dx is 100); at 1024
# points the free run's H_c slope exceeds its tier-1 test's 1e-5
_AIRY_GRID = Grid1D(-36.0, 12.0, 1536)
# the Airy construction residual's largest dx, that of 4096 points on
# [-36, 12]: its 5-point x-stencil on the closed form errs as dx^4, so it
# keeps a mesh of its own (``NswpCase.residual_mesh``)
_AIRY_RESIDUAL_DX = 48.0 / 4095
# the Airy construction residual skips 16 cells of its mesh at each edge,
# 16 * 48 / 4095 ~ 0.19 in x
_AIRY_MARGIN = 16 * _AIRY_RESIDUAL_DX
_AIRY_MASK = AbsorbingMask(width=8.0, strength=40.0)
_AIRY_WINDOW = (-10.0, 4.0)  # where the Airy runs compare densities
# Under V = -F(t) x the split step's error is a global phase; what is left is
# F sampled at step midpoints (~ T dt^2 |F''| / 24) and an O(dt^2 F') shift,
# both under the ~1.6e-4 density floor the mask and window set. On the
# default grid the default sin force's windowed_density_mismatch reads
# 1.6202e-4 at dt = 4e-3 and 1.6218e-4 at 1e-2; at 2e-2 the sin force
# 0.3 x 12 rises from 0.13 to 0.20 of that check's bound.
_AIRY_DT = 1e-2


@dataclass
class ScenarioResult:
    """A run's report and extras, and ``evaluate()``, which builds its checks
    from them. The checks are built on the first read of ``checks``, so a
    caller that only writes the report (``nswp propagate``) never pays for
    them, nor fails on one that cannot be evaluated."""

    name: str
    report: Optional[RunReport]
    evaluate: Callable[[], list]
    extras: dict = dc_field(default_factory=dict)
    solution: Optional[NswpSolution] = None

    @cached_property
    def checks(self) -> list:
        return self.evaluate()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "extras": self.extras,
        }


def fewest_points(width: float, dx: float) -> int:
    """The fewest points on a span of ``width`` that lie at most ``dx``
    apart; a whole number of cells, up to round-off, takes that many."""
    return math.ceil(width / dx - 1e-9) + 1


# ---------------------------------------------------------------------------
# One NSWP run: construct, self-check, propagate, compare
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NswpCase:
    """A closed-form packet ``sol``, a mode of the static ``v``, with what
    its family predicts: ``v_run(x, t)``, the closed form of its supporting
    potential V_nswp, which ``support`` names and ``support_times`` sample
    (none where ``v_run`` is V_nswp itself); the times of the construction
    residual, taken ``margin``, a length in x, in from the edges, on a
    mesh whose dx is at most ``residual_dx`` (``residual_mesh``); and the
    ``window`` (x_lo, x_hi) its density is compared on, None for the whole
    grid."""

    sol: NswpSolution
    v: StaticPotential
    v_run: Callable[[np.ndarray, float], np.ndarray]
    support: str
    support_times: tuple
    residual_times: tuple
    margin: float = RESIDUAL_MARGIN
    window: Optional[tuple] = None
    residual_dx: Optional[float] = None

    def residual_mesh(self, grid: Grid1D) -> Grid1D:
        """The construction residual's mesh for a run on ``grid``: its span
        on its points or, where they lie more than ``residual_dx`` apart,
        on the fewest that do not; ``grid`` itself without a
        ``residual_dx``."""
        if self.residual_dx is None:
            return grid
        n = fewest_points(grid.width, self.residual_dx)
        return grid if grid.n >= n else replace(grid, n=n)

    def reference(self, grid: Grid1D):
        """t -> |f(x - d(t))|^2 at the window's points only, and the slice of
        the grid that holds them, all of it without a window: the window
        checks read no other point. One row per time for an array of times.
        Raises RangeError unless the window and the two points either side
        of it, which the 5-point <P> stencil reads, lie inside the grid."""
        shape, d = self.sol.shape, self.sol.trajectory.d
        sel = slice(None)
        if self.window is not None:
            sel = slice(int(np.searchsorted(grid.x, self.window[0], "left")),
                        int(np.searchsorted(grid.x, self.window[1], "right")))
            if sel.start < 2 or sel.stop > grid.n - 2:
                raise RangeError(
                    f"the comparison window [{self.window[0]:g}, {self.window[1]:g}] and "
                    f"two points either side of it do not fit the grid of {grid.n} points "
                    f"on [{grid.x_min:g}, {grid.x_max:g}]")
        return (lambda t: shape.on_grid_shifted(grid, d(t), sel) ** 2), sel


def run_case(case: NswpCase, config: PropagationConfig, name: str, extras: dict,
             family_checks: Callable[[RunReport], list]) -> ScenarioResult:
    """One NSWP family's run, as the scenario ``name``.

    Its report is Psi(0) propagated under ``case.v_run`` (tapered into the
    mask under an ``AbsorbingMask``), with its shape deviation from
    |f(x - d(t))|^2 on the case's window and, between walls, its H-tilde
    residual. Its checks are, in order: V_nswp is ``v_run`` at the support
    times, the construction TDSE residual relative to max|Psi(0)|, both on
    ``case.residual_mesh(grid)``, then ``family_checks(report)``. Its
    extras are ``extras`` with the run's dt and t_end."""
    sol, grid = case.sol, config.grid
    # first: it refuses a window the grid does not hold before any work
    reference, sel = case.reference(grid)
    psi0 = analytic_psi(sol, grid, 0.0)
    masked = config.mask is not None
    if masked:
        # a non-normalizable mode ends abruptly at the domain edges; its kink
        # would radiate fast spurious components across the whole window
        # within a few steps, so take it smoothly to zero across the mask
        s = edge_ramp(grid, config.mask.width)
        psi0 = WaveField(grid=grid, values=psi0.values * np.cos(0.5 * np.pi * s) ** 2)
    report = propagate(psi0, case.v_run, config, sol.consts)
    report.shape_deviation = shape_deviation(report, reference, sel)
    if not masked:
        report.htilde_residual = htilde_residual(
            report.snapshot_values, grid, case.v, sol.trajectory, sol.consts, sol.E_f,
            report.times)

    def evaluate():
        support = max((float(np.max(np.abs(v_nswp(sol, case.v, grid.x, t)
                                           - case.v_run(grid.x, t))))
                       for t in case.support_times), default=0.0)
        mesh = case.residual_mesh(grid)
        peak = float(np.max(np.abs(analytic_psi(sol, mesh, 0.0).values)))
        residual = max(tdse_residual(sol, case.v, mesh, t, margin=case.margin,
                                     dirichlet=not masked)
                       for t in case.residual_times) / peak
        return [CheckResult.below(case.support, support, 1e-10),
                CheckResult.below("construction_tdse_residual", residual, 1e-4,
                                  note="relative to max|Psi|"),
                *family_checks(report)]
    return ScenarioResult(name, report, evaluate,
                          {**extras, "dt": config.dt, "t_end": config.t_end}, sol)


# ---------------------------------------------------------------------------
# Shifted SHO eigenstates (Schrodinger / Senitzky family)
# ---------------------------------------------------------------------------

def harmonic_grid(half: float, sigma: float, inputs: str) -> Grid1D:
    """+-``half`` on the fewest points that keep dx at most 16/127 sigma
    (``_SHO_GRID.dx`` sigma) and pi sigma^2 / half, for an oscillator packet
    of length sigma = sqrt(hbar / m omega) that reaches x = half: it reaches
    k = half / sigma^2 (its carrier plus its tail in k), which the Nyquist
    wavenumber pi / dx must reach too. Raises RangeError naming the
    ``inputs``, before any grid is built, past ``grids.MAX_DENSE_POINTS``."""
    dx = min(_SHO_GRID.dx * sigma, math.pi * sigma**2 / half)
    intervals = 2.0 * half / dx
    # an inf or NaN count fails here too
    if not intervals <= MAX_DENSE_POINTS - 1:
        raise RangeError(f"the {inputs} takes {intervals + 1:.3g} points, more than the "
                         f"dense basis budget of {MAX_DENSE_POINTS}")
    return Grid1D(-half, half, fewest_points(2.0 * half, dx))


def sho_grid(n: int = 0, amplitude: float = 2.0, omega: float = 1.0,
             consts: PhysicalConstants = PhysicalConstants()) -> Grid1D:
    """The ``harmonic_grid`` of the n-th oscillator mode swinging by
    ``amplitude``: L = |amplitude| + (sqrt(2n + 1) + ``_SHO_TAIL``) sigma,
    the mode's turning point at the largest swing plus its Gaussian tail.
    The tail the sine DVR's walls cut off sets the residual checks' floor.
    At the paper's defaults it is ``_SHO_GRID``. Raises RangeError, before
    any grid is built, unless n >= 0 and omega > 0."""
    if not (n >= 0 and omega > 0):
        raise RangeError(f"the sho mode needs n >= 0 and omega > 0, got n = {n} and "
                         f"omega = {omega:g}")
    sigma = math.sqrt(consts.hbar / (consts.mass * omega))
    return harmonic_grid(
        abs(amplitude) + (math.sqrt(2 * n + 1) + _SHO_TAIL) * sigma, sigma,
        f"sho grid of n = {n}, amplitude = {amplitude:g}, omega = {omega:g}, "
        f"hbar = {consts.hbar:g} and mass = {consts.mass:g}")


def sho_case(
    n: int = 0,
    amplitude: float = 2.0,
    omega: float = 1.0,
    grid: Grid1D = None,
    consts: PhysicalConstants = PhysicalConstants(),
    t_max: float = 10.0,
) -> NswpCase:
    """The n-th oscillator mode swinging on d = amplitude sin(omega t), with
    the gauge that keeps its supporting potential the static oscillator,
    sampled on ``grid``, by default ``sho_grid``. ``t_max`` is the phi0
    cache horizon."""
    if grid is None:
        grid = sho_grid(n, amplitude, omega, consts)
    v_static = StaticPotential.harmonic(omega, consts.mass)
    pair = lowest_eigenpairs(v_static, grid, consts, n + 1)[n]
    traj = Sinusoid(amplitude=amplitude, omega=omega)
    sol = NswpSolution(SampledShape.from_eigenpair(pair), traj,
                       gauge_sho_case(omega, traj, consts), consts=consts, t_max=t_max)
    v_samples = np.asarray(v_static(grid.x))
    period = 2.0 * math.pi / omega
    return NswpCase(sol, v_static, lambda x, t: v_samples, "gauge_gives_static_sho",
                    support_times=(0.37 * period,),
                    residual_times=(1e-4, 0.3 * period, 0.7 * period))


def run_sho_shifted(
    n: int = 0,
    amplitude: float = 2.0,
    omega: float = 1.0,
    grid: Grid1D = None,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """Propagate the shifted n-th SHO eigenstate for one period, on
    ``grid``, by default ``sho_grid``, with a snapshot every period/200.

    Its V is the static oscillator, so the run takes no step: every
    snapshot is one product in the eigenbasis of T + V, exact at any dt,
    and dt = period/200 is only the snapshot interval, uniform for the
    5-point difference of <P>."""
    period = 2.0 * math.pi / omega
    t_end = period
    if grid is None:
        grid = sho_grid(n, amplitude, omega, consts)
    config = PropagationConfig(dt=period / 200.0, t_end=t_end, grid=grid)
    case = sho_case(n, amplitude, omega, grid, consts, t_max=t_end + 1.0)
    sol, v_static = case.sol, case.v

    def family_checks(report):
        first, last = report.snapshot_values[[0, -1]]
        overlap = abs(grid.dx * np.vdot(first, last)) / (report.norm[0] * report.norm[-1])
        return [
            CheckResult.below("shape_deviation", float(np.max(report.shape_deviation)),
                              5e-4),
            CheckResult.below("htilde_residual_max",
                              float(np.max(report.htilde_residual)), 1e-4),
            *classical_motion_check(report, sol.trajectory, consts),
            *energy_split_check(report, sol, v_static, consts),
            CheckResult.below("period_end_overlap", abs(1.0 - overlap), 1e-4),
        ]
    return run_case(case, config, f"sho_shifted_n{n}",
                    {"n": n, "amplitude": amplitude, "omega": omega, "energy": sol.E_f},
                    family_checks)


# ---------------------------------------------------------------------------
# Airy packets (Berry-Balazs), free and forced: m d_ddot = A + F(t)
# ---------------------------------------------------------------------------

def quadratic_peak(x: np.ndarray, y: np.ndarray) -> float:
    """Peak position by quadratic interpolation around the grid maximum."""
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        return float(x[i])
    denom = y[i - 1] - 2 * y[i] + y[i + 1]
    if denom == 0:
        return float(x[i])
    return float(x[i] + 0.5 * (y[i - 1] - y[i + 1]) / denom * (x[1] - x[0]))


def _windowed_momentum(values: np.ndarray, sel: slice, dx: float, hbar: float) -> float:
    """<P> of the samples ``values`` over the window ``sel``, with the 5-point
    derivative taken on the window and the two points either side of it
    only."""
    values = values[sel.start - 2:sel.stop + 2]
    d1 = fd5_first(values, dx)[2:-2]
    values = values[2:-2]
    # the trapezoidal rule: a window cuts a field that does not vanish at its ends
    num = np.trapezoid(np.conj(values) * (-1j * hbar) * d1, dx=dx).real
    den = np.trapezoid(np.abs(values) ** 2, dx=dx)
    return float(num / den)


_AIRY_RESIDUAL_TIMES = (0.1, 1.0)
_AIRY_SUPPORT_TIMES = (0.0, 0.6, 1.5)


def phi0_forced_airy(A: float, F: Callable, E_f: float, t: float,
                     consts: PhysicalConstants) -> float:
    """Global phase of the forced Airy packet from the nested-integral formula.

    phi0 = -E_f t/hbar - A^2 t^3/(3 m hbar)
           - (1/(2 m hbar)) * int_0^t I1^2 dtau
           - (A/(m hbar)) * [ int_0^t tau I1 dtau + int_0^t I2 dtau ],
    with I1(tau) = int_0^tau F and I2(tau) = int_0^tau I1.

    Primitives: F, which takes an array of times, is sampled on one uniform
    mesh over [0, t]; I1 and I2 are cumulative Simpson sums
    (``cumulative_simpson_uniform``) on that mesh and the three outer
    integrals are composite Simpson sums (``simpson_uniform``) of I1^2,
    tau I1 and I2. ``mesh_doubling`` doubles the mesh until phi0 is stable
    to 1e-10. The phi0 the packet carries, ``NswpSolution.phi0``, is the
    piecewise-quintic antiderivative (``cumulative_antiderivative``) of
    E_f + G + m d_dot^2/2, with d_dot from ``ForceTrajectory``'s
    piecewise-quintic antiderivative of F. This route uses neither, so the
    two share no primitive and an error in either shows as a disagreement.
    """
    hbar, m = consts.hbar, consts.mass

    def phi0_on_mesh(ts, f):
        h = ts[1] - ts[0]
        i1 = cumulative_simpson_uniform(f, h)
        i2 = cumulative_simpson_uniform(i1, h)
        sq_term = simpson_uniform(i1**2, h)
        tau_term = simpson_uniform(ts * i1, h)
        triple = simpson_uniform(i2, h)
        return (
            -E_f * t / hbar
            - A**2 * t**3 / (3.0 * m * hbar)
            - sq_term / (2.0 * m * hbar)
            - A / (m * hbar) * (tau_term + triple)
        )

    return mesh_doubling(phi0_on_mesh, F, t, 1e-10)


def airy_forced_case(B: float = 1.0, F: Callable = lambda t: np.zeros_like(t, dtype=float),
                     consts: PhysicalConstants = PhysicalConstants(),
                     t_max: float = 10.0) -> NswpCase:
    """The Airy mode of V = A x, A = B^3/(2m), E_f = 0, pushed by the uniform
    force A + F(t) under the gauge G = A d that cancels the moving-well
    offset: its supporting potential reduces to -F(t) x, which is 0 for the
    free packet F = 0. F takes a time or an array of times."""
    A = B**3 / (2.0 * consts.mass)
    traj = ForceTrajectory(A, F, consts, t_max=t_max)
    sol = NswpSolution(AiryShape(A=A, energy=0.0, consts=consts), traj,
                       gauge_linear_case(A, traj), consts=consts, t_max=t_max)
    return NswpCase(sol, StaticPotential.linear(A), lambda x, t: -F(t) * x,
                    "supporting_potential_is_minus_Fx", _AIRY_SUPPORT_TIMES,
                    residual_times=_AIRY_RESIDUAL_TIMES, margin=_AIRY_MARGIN,
                    window=_AIRY_WINDOW, residual_dx=_AIRY_RESIDUAL_DX)


def run_airy_forced(
    F: Callable,
    force_label: str = "custom",
    B: float = 1.0,
    grid: Grid1D = _AIRY_GRID,
    dt: float = _AIRY_DT,
    t_end: float = 2.0,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """Propagation of the Airy packet under V(x, t) = -F(t) x with absorbing
    boundaries; F = 0 is the free-space packet.

    The domain extends far to the left of the comparison window: the
    accelerating packet is fed by right-moving components of the oscillatory
    tail, so the undamped region must cover every tail point whose local
    group velocity can reach the window within t_end.

    The default ``grid`` is ``_AIRY_GRID``, 1536 points on [-36, 12]; its
    count comes from ``studies/airy_points.py``. The construction residual,
    and the max|Psi(0)| it is relative to, are taken on a mesh of
    ``grid``'s span whose dx is at most that of 4096 points on [-36, 12]
    (``NswpCase.residual_mesh``): exactly ``Grid1D(-36, 12, 4096)`` at the
    default span, whatever ``grid``'s count up to 4096.

    The default dt is ``_AIRY_DT`` = 1e-2. For a uniform force the split
    step's error is a global phase; what remains, F sampled at the step
    midpoints and an O(dt^2 F') shift, stays below the windowed density
    floor for sin forces of amplitude up to 0.45 and frequency up to 12.

    Besides the window checks, the main-lobe peak must move by d(t)
    (relative to max(|d|, 1), so a packet that has barely moved is held to
    an absolute error), and the windowed <P> less the impulse of F,
    m d_dot - A t, must grow at rate A: H_c carries the constant force.
    """
    # built first: it refuses a run past the step budget before the force
    # and phi0 caches are built; they reach 1 past the run and past every
    # time the checks sample (the phase_dual_route mesh stops 0.5 short).
    # A snapshot every 0.1
    config = PropagationConfig(dt=dt, t_end=t_end, grid=grid,
                               snapshot_stride=max(1, round(0.1 / dt)), mask=_AIRY_MASK)
    t_max = max(t_end, *_AIRY_SUPPORT_TIMES, *_AIRY_RESIDUAL_TIMES) + 1.0
    case = airy_forced_case(B, F, consts, t_max=t_max)
    sol, A = case.sol, case.sol.shape.A

    def family_checks(report):
        # dual-route phase: nested-integral formula vs the packet's phi0
        ts = np.linspace(0.0, min(3.0, sol.t_max - 0.5), 13)
        nested = [phi0_forced_airy(A, F, sol.E_f, t, consts) for t in ts]
        phase_dev = float(np.max(np.abs(np.subtract(nested, sol.phi0(ts)))))
        reference, sel = case.reference(grid)
        times = report.times
        d, d_dot, _ = sol.trajectory.eval(times)
        rows = report.snapshot_values
        peaks = np.array([quadratic_peak(grid.x[sel], np.abs(row[sel]) ** 2)
                          for row in rows])
        peak_err = float(np.max(np.abs(peaks[1:] - peaks[0] - d[1:])
                                / np.maximum(np.abs(d[1:]), 1.0)))
        p_window = np.array([_windowed_momentum(row, sel, grid.dx, consts.hbar)
                             for row in rows])
        impulse = consts.mass * d_dot - A * times
        slope = float(np.polyfit(times, p_window - impulse, 1)[0])
        # mask contamination: the relative loss of the last snapshot's
        # windowed probability content against the reference density's,
        # trapezoidal as a window cuts a field that does not vanish at its ends
        content = np.trapezoid(np.abs(rows[-1, sel]) ** 2, dx=grid.dx)
        absorbed = float(abs(1.0 - content / np.trapezoid(reference(times[-1]), dx=grid.dx)))
        return [
            CheckResult.below("phase_dual_route", phase_dev, 1e-8,
                              note="nested-integral phi0 vs the packet's phi0"),
            CheckResult.below("peak_follows_trajectory", peak_err, 0.02,
                              note="|peak shift - d| / max(|d|, 1)"),
            CheckResult.below("windowed_density_mismatch",
                              float(np.max(report.shape_deviation)), 1e-3,
                              note="sup, relative to peak"),
            CheckResult.below("hc_constant_force", abs(slope - A) / A, 0.05,
                              note="d<P_window - int F>/dt vs A, relative"),
            CheckResult.below("window_content_loss", absorbed, 0.01),
        ]
    return run_case(case, config, f"airy_forced_{force_label}",
                    {"B": B, "A": A, "force": force_label, "window": list(_AIRY_WINDOW)},
                    family_checks)


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

def run_gaussian_spreading(consts: PhysicalConstants = PhysicalConstants()) -> ScenarioResult:
    """Free Gaussian spreading control: width must follow the analytic law.

    sigma(t) = sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2) with sigma0 = 1,
    to t = 2 with a snapshot every 0.2, on 128 points over [-16, 16] (the
    width law holds there to 7e-13, and |psi| at the walls stays under
    1e-13 of its peak); a propagator that kept this packet rigid would be
    broken. V = 0 takes no step, so dt is only the snapshot interval.
    """
    sigma0, dt, t_end = 1.0, 0.2, 2.0
    grid = Grid1D(-16.0, 16.0, 128)
    x = grid.x
    psi = np.exp(-(x**2) / (4.0 * sigma0**2)).astype(complex)
    psi /= np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    initial = WaveField(grid=grid, values=psi, time=0.0)

    config = PropagationConfig(dt=dt, t_end=t_end, grid=grid)
    report = propagate(initial, lambda xx, t: np.zeros_like(xx), config, consts)
    report.shape_deviation = rigid_shape_deviation(report)

    def evaluate():
        width = np.sqrt(observables(report.snapshot_values, grid, None, consts).variance)
        law = sigma0 * np.sqrt(1.0 + (consts.hbar * report.times
                                      / (2 * consts.mass * sigma0**2)) ** 2)
        width_err = float(np.max(np.abs(width - law) / law))
        return [
            CheckResult.below("width_follows_spreading_law", width_err, 0.01, note="relative"),
            CheckResult.above("spreading_detected", float(report.shape_deviation[-1]),
                              SPREAD_THRESHOLD, note="shape deviation must EXCEED threshold"),
        ]
    return ScenarioResult(
        name="gaussian_spreading_control",
        report=report,
        evaluate=evaluate,
        extras={"sigma0": sigma0, "dt": dt, "t_end": t_end},
    )


# |psi| of a Gaussian falls to exp(-c^2/4) ~ 8e-7 of its peak at c standard
# deviations of |psi|^2 from its centroid
_TRAP_ENVELOPE_SIGMAS = 7.5
_TRAP_AMPLITUDE = 2.0  # the trap packet's initial shift
_TRAP_HORIZON = 10.0  # the trap runs' t_end
# the trap's step: one composed step per snapshot, whose step error estimate
# reads 2.9e-5 at eps = 0.2 and passes propagator.STEP_TOLERANCE for eps in
# [-0.2, 0.2] (studies/trap_step_error.py)
_TRAP_DT = 0.1


def trap_envelope_half_width(modulation: float, consts: PhysicalConstants) -> float:
    """max over the trap run, 0 <= t <= ``_TRAP_HORIZON``, of |x_c| + c sigma
    for the oscillator ground state shifted by A = ``_TRAP_AMPLITUDE`` under
    V = m w(t)^2 x^2 / 2, w = 1 + eps sin t, with c = ``_TRAP_ENVELOPE_SIGMAS``.

    Under a quadratic V a Gaussian stays Gaussian, and its centroid and
    width follow the classical solutions of u'' = -w(t)^2 u (Husimi, Prog.
    Theor. Phys. 9, 381 (1953)): from u1(0) = 1, u1'(0) = 0 and u2(0) = 0,
    u2'(0) = 1, x_c = A u1 and sigma^2 = sigma0^2 (u1^2 + u2^2) with
    sigma0^2 = hbar / 2m. Both are stepped exactly with w held at each
    substep's midpoint, on substeps of 1e-2 (second order).
    """
    n = round(_TRAP_HORIZON / 1e-2)
    h = _TRAP_HORIZON / n
    w = 1.0 + modulation * np.sin(h * (np.arange(n) + 0.5))
    # one substep maps (u, u') to (cos u + sin/w u', -w sin u + cos u')
    c, s_w, w_s = np.cos(w * h), h * np.sinc(w * h / np.pi), w * np.sin(w * h)
    u1, v1, u2, v2 = 1.0, 0.0, 0.0, 1.0
    path = [(u1, u2)]
    for ck, sk, wk in zip(c.tolist(), s_w.tolist(), w_s.tolist()):
        u1, v1 = ck * u1 + sk * v1, ck * v1 - wk * u1
        u2, v2 = ck * u2 + sk * v2, ck * v2 - wk * u2
        path.append((u1, u2))
    u1s, u2s = np.array(path).T
    sigma = math.sqrt(consts.hbar / (2.0 * consts.mass)) * np.sqrt(u1s**2 + u2s**2)
    return float(np.max(np.abs(_TRAP_AMPLITUDE * u1s) + _TRAP_ENVELOPE_SIGMAS * sigma))


def trap_start(modulation: float, consts: PhysicalConstants) -> tuple:
    """The trap's grid, the ``harmonic_grid`` of +-``trap_envelope_half_width``
    for the oscillator length sqrt(hbar / m), and its initial samples, the
    ground state sampled at d = ``_TRAP_AMPLITUDE``. Raises ``RangeError``
    first unless |modulation| < 1, where w(t) stays positive; at
    |modulation| >= 1 the trap opens for an instant."""
    if not abs(modulation) < 1.0:
        raise RangeError(f"modulation must satisfy |eps| < 1, got {modulation!r}")
    grid = harmonic_grid(
        trap_envelope_half_width(modulation, consts), math.sqrt(consts.hbar / consts.mass),
        f"trap grid of modulation = {modulation:g}, hbar = {consts.hbar:g} and "
        f"mass = {consts.mass:g}")
    pair = lowest_eigenpairs(StaticPotential.harmonic(1.0, consts.mass), grid, consts, 1)[0]
    return grid, SampledShape.from_eigenpair(pair).on_grid_shifted(grid, _TRAP_AMPLITUDE)


def trap_potential(modulation: float, consts: PhysicalConstants) -> Callable:
    """V(x, t) = m w(t)^2 x^2 / 2 of the trap, w = 1 + ``modulation`` sin t."""
    return lambda x, t: 0.5 * consts.mass * (1.0 + modulation * np.sin(t)) ** 2 * x**2


def run_sho_timedep_frequency(
    modulation: float = 0.2,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """The negative claim: the oscillator ground state sampled at d = 2
    (``trap_start``), under V = m w(t)^2 x^2 / 2, w = 1 + eps sin t
    (``trap_potential``), to t_end = 10, must spread, while the same mode
    under the static control eps = 0 (the Schrodinger NSWP, a coherent
    oscillation) stays rigid. w sets the time unit, hbar and m the length.

    Both runs share the grid, dt, snapshots and initial mode, so the control
    differs only in the modulation. Shape deviation is measured against
    the initial profile translated to the instantaneous centroid
    (``rigid_shape_deviation``, the most charitable comparison). The report
    is the modulated run's, the extras the record of
    ``verifier.no_nswp_for_time_dependent_frequency``, which makes the one
    check, with the dt the runs took and the modulated run's
    ``step_error_estimate``. |eps| >= 1 raises ``RangeError``.

    The grid is sized from the packet's exact classical envelope: at
    eps = 0.2 and hbar = m = 1 it is 125 points on +-7.78. The run steps at
    dt = 0.1, one step per snapshot, where the estimate of its step error
    reads 2.9e-5 of the peak. Where the estimate exceeds
    ``propagator.STEP_TOLERANCE``, the run is taken once more at dt/k, with
    k the fewest substeps that the dt^4 scaling of that estimate predicts to
    reach half the tolerance, still with a snapshot every 0.1; an estimate
    past the tolerance then raises AccuracyError.
    """
    grid, values = trap_start(modulation, consts)
    initial = WaveField(grid=grid, values=values)
    config = PropagationConfig(dt=_TRAP_DT, t_end=_TRAP_HORIZON, grid=grid)

    def run(eps):
        report = propagate(initial, trap_potential(eps, consts), config, consts)
        report.shape_deviation = rigid_shape_deviation(report)
        return report

    try:
        modulated = run(modulation)
    except AccuracyError as exc:
        # the fewest substeps k whose dt^4 scaling of the estimate predicts
        # half the tolerance: near dt = 0.1 the estimate falls 15x, not 16x,
        # per halving (studies/trap_step_error.py), and at eps = 0.7 the
        # exact prediction, k = 2, reads 1.05e-4
        k = math.ceil((2.0 * exc.best_estimate / STEP_TOLERANCE) ** 0.25)
        config = replace(config, dt=_TRAP_DT / k, snapshot_stride=k)
        modulated = run(modulation)
    record = no_nswp_for_time_dependent_frequency(modulated, run(0.0))
    check = CheckResult("spread_detected_with_static_control",
                        record["modulated_max_deviation"], record["spread_threshold"],
                        record["pass"],
                        note="expected deviation growth demonstrates the negative claim")
    return ScenarioResult(name="sho_timedep_freq", report=modulated,
                          evaluate=lambda: [check],
                          extras={**record, "dt": config.dt,
                                  "step_error_estimate": modulated.step_error_estimate})


def run_corrupted_phase(consts: PhysicalConstants = PhysicalConstants()) -> ScenarioResult:
    """Self-test without propagation: the TDSE residual of the shifted SHO
    packet on its default grid (``sho_grid``) must inflate at least 100x
    when its global phase is dropped."""
    case = sho_case(consts=consts, t_max=20.0)
    sol, v, grid = case.sol, case.v, case.sol.shape.field.grid
    peak = float(np.max(np.abs(analytic_psi(sol, grid, 1.0).values)))
    good = tdse_residual(sol, v, grid, 1.0) / peak
    bad = tdse_residual(sol, v, grid, 1.0, drop_phi0=True) / peak
    check = CheckResult.above("residual_inflates_100x", bad / good, 100.0,
                              note="corrupted/good TDSE residual ratio")
    return ScenarioResult(name="corrupted_phase_control", report=None,
                          evaluate=lambda: [check],
                          extras={"good_residual": good, "corrupted_residual": bad})


# ---------------------------------------------------------------------------
# Scenario table
# ---------------------------------------------------------------------------

GRID_KEYS = {"x_min": "x_min", "x_max": "x_max", "n_points": "n"}  # key -> Grid1D field
FORCE_KEYS = ("force_kind", "force_amp", "force_freq")


def grid_from(config: dict, default: Grid1D) -> Grid1D:
    """``default`` with the grid keys of ``config`` in place of its fields. A
    span given without ``n_points`` takes the fewest points that keep dx at
    most ``default``'s, so that a wider span is not sampled more coarsely."""
    grid = replace(default, **{f: config[k] for k, f in GRID_KEYS.items() if k in config})
    if "n_points" in config:
        return grid
    return replace(grid, n=fewest_points(grid.width, default.dx))


def consts_from(config: dict) -> PhysicalConstants:
    return PhysicalConstants(**{k: config[k] for k in ("hbar", "mass") if k in config})


def uniform_force(force_kind: str = "sin", force_amp: float | None = None,
                  force_freq: float | None = None) -> tuple[Callable, str]:
    """F(t) for a time or an array of times, and its label: ``none`` (0),
    ``const`` (force_amp, default 0.3) or ``sin`` (force_amp sin(force_freq
    t), default frequency 2.0). A key given that the kind ignores raises."""
    given = {"force_amp": force_amp, "force_freq": force_freq}
    unused = {"none": ("force_amp", "force_freq"), "const": ("force_freq",)}.get(force_kind, ())
    ignored = [k for k in unused if given[k] is not None]
    if ignored:
        raise ConfigurationError(f"force_kind '{force_kind}' does not take {ignored}")
    amp = 0.3 if force_amp is None else force_amp
    freq = 2.0 if force_freq is None else force_freq
    if force_kind == "none":
        return (lambda t: np.zeros_like(t, dtype=float)), "none"
    if force_kind == "const":
        return (lambda t: np.full_like(t, amp, dtype=float)), f"const{amp:g}"
    if force_kind == "sin":
        return (lambda t: amp * np.sin(freq * t)), f"sin{amp:g}x{freq:g}"
    raise ConfigurationError(f"unknown force_kind '{force_kind}'")


@dataclass(frozen=True)
class Scenario:
    """A run the command line offers by name.

    ``run(**kwargs)`` returns a ScenarioResult. Every scenario takes hbar and
    mass (as ``consts``) besides its own ``keys``; one with a default
    ``grid``, a Grid1D or a function of the other keyword arguments that
    derives one, also takes the grid keys (as ``grid``) and, if it has a
    ``case``, ``case(**kwargs, t_max=...)`` returns its ``NswpCase``. ``run``
    and ``case`` are lambdas, so the module functions they call are looked
    up when called, not when this table is built.
    """

    run: Callable[..., ScenarioResult]
    keys: tuple = ()
    grid: object = None
    case: Optional[Callable] = None
    propagates: bool = True

    @property
    def config_keys(self) -> set:
        return {*self.keys, "hbar", "mass", *(GRID_KEYS if self.grid else ())}

    def kwargs(self, config: dict) -> dict:
        """Keyword arguments of ``run`` and ``case`` from a flat config."""
        kw = {"n" if k == "mode_index" else k: v
              for k, v in config.items() if k in self.keys and k not in FORCE_KEYS}
        kw["consts"] = consts_from(config)
        if self.grid is not None:
            default = self.grid(**kw) if callable(self.grid) else self.grid
            kw["grid"] = grid_from(config, default)
        if "force_kind" in self.keys:
            kw["F"], kw["force_label"] = uniform_force(
                **{k: config[k] for k in FORCE_KEYS if k in config})
        return kw


SCENARIOS = {
    "sho": Scenario(
        run=lambda **kw: run_sho_shifted(**kw),
        keys=("mode_index", "amplitude", "omega"),
        grid=lambda **kw: sho_grid(**kw),
        case=lambda **kw: sho_case(**kw)),
    # the zero-force member of the Airy family; the grid only samples a
    # closed-form Airy packet
    "airy-free": Scenario(
        run=lambda **kw: run_airy_forced(*uniform_force("none"), **kw),
        keys=("B", "dt", "t_end"), grid=_AIRY_GRID,
        case=lambda grid, **kw: airy_forced_case(F=uniform_force("none")[0], **kw)),
    "airy-forced": Scenario(
        run=lambda **kw: run_airy_forced(**kw),
        keys=("B", "dt", "t_end", *FORCE_KEYS), grid=_AIRY_GRID,
        case=lambda grid, force_label, **kw: airy_forced_case(**kw)),
    "gaussian-control": Scenario(run=lambda **kw: run_gaussian_spreading(**kw)),
    "sho-timedep-freq": Scenario(run=lambda **kw: run_sho_timedep_frequency(**kw),
                                 keys=("modulation",)),
    "corrupted-phase": Scenario(run=lambda **kw: run_corrupted_phase(**kw),
                                propagates=False),
}
