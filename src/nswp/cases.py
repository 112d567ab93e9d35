"""End-to-end scenario runs: free-space Airy, forced Airy, shifted SHO modes,
plus the three controls (spreading Gaussian, time-modulated SHO frequency,
corrupted phase).

Each run constructs the closed-form packet, self-checks it against the
time-dependent Schrodinger equation, propagates it independently
(a fourth-order Pade step between walls, split-step Fourier under the
Airy runs' absorbing mask), and reduces the result to named pass/fail checks.
``SCENARIOS`` is the table of runs the command line offers by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from .constructor import (AiryShape, NswpSolution, SampledShape,
                          analytic_psi, gauge_linear_case, gauge_sho_case,
                          tdse_residual, v_nswp)
from .eigensolver import StaticPotential, lowest_eigenpairs
from .errors import ConfigurationError, RangeError
from .grids import (Grid1D, PhysicalConstants, WaveField, fd3_first,
                    inner_product, observables, shift_field)
from .propagator import (AbsorbingMask, PropagationConfig, RunReport, edge_ramp,
                         propagate)
from .quadrature import cumulative_simpson_uniform, mesh_doubling, simpson_uniform
from .trajectory import ForceTrajectory, Sinusoid, UniformAcceleration
from .verifier import (CONTROL_THRESHOLD, SPREAD_THRESHOLD, CheckResult,
                       classical_motion_check, energy_split_check,
                       make_htilde_metric, no_nswp_for_time_dependent_frequency)

# dx ~ 1.6e-2: the fourth-order Numerov operator keeps the modes n <= 2 within
# the 1e-4 motion and H-tilde tolerances
_SHO_GRID = Grid1D(-8.0, 8.0, 1024)
_AIRY_GRID = Grid1D(-36.0, 12.0, 4096)
_AIRY_MASK = AbsorbingMask(width=8.0, strength=40.0)
_AIRY_WINDOW = (-10.0, 4.0)  # where the Airy runs compare densities


@dataclass
class ScenarioResult:
    name: str
    report: Optional[RunReport]
    checks: list
    extras: dict = dc_field(default_factory=dict)
    solution: Optional[NswpSolution] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "extras": self.extras,
            "report": self.report.to_dict() if self.report is not None else None,
        }


def _guarded_dt(dt: float, v_max: float, consts: PhysicalConstants) -> float:
    """A default dt cut to dt/k with the smallest whole k that keeps
    dt max|V| / hbar under the step guard's 0.5."""
    return dt / (math.floor(2.0 * dt * v_max / consts.hbar) + 1)


def _overlap_mod(a: WaveField, b: WaveField) -> float:
    num = abs(inner_product(a, b))
    den = math.sqrt(inner_product(a, a).real * inner_product(b, b).real)
    return num / den


# ---------------------------------------------------------------------------
# Shifted SHO eigenstates (Schrodinger / Senitzky family)
# ---------------------------------------------------------------------------

def sho_solution(
    n: int = 0,
    amplitude: float = 2.0,
    omega: float = 1.0,
    grid: Grid1D = _SHO_GRID,
    consts: PhysicalConstants = PhysicalConstants(),
    t_max: float = 10.0,
) -> tuple[NswpSolution, StaticPotential]:
    """The n-th oscillator mode swinging on d = amplitude sin(omega t), with
    the gauge that keeps its supporting potential the static oscillator;
    returns the packet and that oscillator. ``t_max`` is the phi0 cache
    horizon."""
    v_static = StaticPotential.harmonic(omega, consts.mass)
    pair = lowest_eigenpairs(v_static, grid, consts, n + 1)[n]
    traj = Sinusoid(amplitude=amplitude, omega=omega)
    sol = NswpSolution(SampledShape.from_eigenpair(pair), traj,
                       gauge_sho_case(omega, traj, consts), consts=consts, t_max=t_max)
    return sol, v_static


def run_sho_shifted(
    n: int = 0,
    amplitude: float = 2.0,
    omega: float = 1.0,
    grid: Grid1D = _SHO_GRID,
    dt: float = None,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """Propagate the shifted n-th SHO eigenstate for one period.

    The default dt is period/1000, cut where the grid's max|V| needs it. A
    snapshot is recorded every period/200, or for a dt that does not divide
    period/200 at the nearest shorter whole number of steps that divides
    the run, so the <P> series stays uniform for its 5-point difference."""
    period = 2.0 * math.pi / omega
    t_end = period

    sol, v_static = sho_solution(n, amplitude, omega, grid, consts, t_max=t_end + 1.0)
    traj = sol.trajectory
    v_samples = np.asarray(v_static(grid.x))
    if dt is None:
        dt = _guarded_dt(period / 1000.0, float(np.max(np.abs(v_samples))), consts)

    # construction self-check before any dynamics
    psi0 = analytic_psi(sol, grid, 0.0)
    peak = float(np.max(np.abs(psi0.values)))
    construction_residual = max(
        tdse_residual(sol, v_static, grid, t) for t in (1e-4, 0.3 * period, 0.7 * period)
    ) / peak

    # with the SHO gauge the supporting potential is the static oscillator
    gauge_check = float(np.max(np.abs(
        v_nswp(sol, v_static, grid.x, 0.37 * period) - v_samples
    )))

    def ref_density(t):
        return sol.shape.on_grid_shifted(grid, traj.d(t)) ** 2

    n_steps = round(t_end / dt)
    stride = max(k for k in range(1, max(1, round(n_steps / 200)) + 1)
                 if n_steps % k == 0)
    config = PropagationConfig(dt=dt, t_end=t_end, grid=grid, snapshot_stride=stride)
    report = propagate(
        psi0, lambda x, t: v_samples, config, consts,
        reference_density=ref_density,
        htilde_fn=make_htilde_metric(v_static, traj, consts, sol.E_f),
    )

    shape_dev = float(np.max(report.shape_deviation))
    htilde_max = float(np.max(report.htilde_residual))
    overlap_dev = abs(1.0 - _overlap_mod(report.snapshots[0], report.snapshots[-1]))

    checks = [
        CheckResult("construction_tdse_residual", construction_residual, 1e-4,
                    construction_residual < 1e-4, note="relative to max|Psi|"),
        CheckResult("gauge_gives_static_sho", gauge_check, 1e-10, gauge_check < 1e-10),
        CheckResult("shape_deviation", shape_dev, 5e-4, shape_dev < 5e-4),
        CheckResult("htilde_residual_max", htilde_max, 1e-4, htilde_max < 1e-4),
        *classical_motion_check(report, traj, consts),
        *energy_split_check(report, sol, v_static, consts),
        CheckResult("period_end_overlap", overlap_dev, 1e-4, overlap_dev < 1e-4),
    ]
    return ScenarioResult(
        name=f"sho_shifted_n{n}",
        report=report,
        checks=checks,
        extras={"n": n, "amplitude": amplitude, "omega": omega,
                "energy": sol.E_f, "dt": dt, "t_end": t_end},
        solution=sol,
    )


# ---------------------------------------------------------------------------
# Free-space Airy packet (Berry-Balazs)
# ---------------------------------------------------------------------------

def _quadratic_peak(x: np.ndarray, y: np.ndarray) -> float:
    """Peak position by quadratic interpolation around the grid maximum."""
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        return float(x[i])
    denom = y[i - 1] - 2 * y[i] + y[i + 1]
    if denom == 0:
        return float(x[i])
    return float(x[i] + 0.5 * (y[i - 1] - y[i + 1]) / denom * (x[1] - x[0]))


def _windowed_momentum(psi: WaveField, sel: np.ndarray, hbar: float) -> float:
    dx = psi.grid.dx
    d1 = fd3_first(psi.values, dx)
    num = np.trapezoid((np.conj(psi.values) * (-1j * hbar) * d1)[sel], dx=dx).real
    den = np.trapezoid(np.abs(psi.values[sel]) ** 2, dx=dx)
    return float(num / den)


def _window_content_loss(report: RunReport, ref_density, sel: np.ndarray,
                         dx: float) -> float:
    """Mask contamination: relative loss of the windowed probability content
    of the last snapshot against the reference density, which
    ``ref_density(t)`` gives at the window points."""
    content = np.trapezoid(report.snapshots[-1].density()[sel], dx=dx)
    content_ref = np.trapezoid(ref_density(report.times[-1]), dx=dx)
    return float(abs(1.0 - content / content_ref))


def _airy_window_density(sol: NswpSolution, grid: Grid1D, sel: np.ndarray):
    """t -> |f(x - d(t))|^2 at the window points only: the window checks
    read no other point."""
    x_window = grid.x[sel]

    def ref_density(t):
        return sol.shape.values_at(x_window - sol.trajectory.d(t)) ** 2
    return ref_density


def airy_free_solution(B: float = 1.0, consts: PhysicalConstants = PhysicalConstants(),
                       t_max: float = 10.0) -> NswpSolution:
    """Closed-form free-space Airy packet: E_f = 0, A = B^3/(2m)."""
    A = B**3 / (2.0 * consts.mass)
    shape = AiryShape(A=A, energy=0.0, consts=consts)
    traj = UniformAcceleration(A / consts.mass)
    return NswpSolution(shape, traj, gauge_linear_case(A, traj),
                        consts=consts, t_max=t_max)


def _taper_into_mask(psi: WaveField) -> WaveField:
    """Smoothly take the field to zero across the Airy mask zones.

    The raw Airy mode is truncated abruptly at the domain edges; the kink
    would radiate fast spurious components across the whole window within a
    few steps.
    """
    s = edge_ramp(psi.grid, _AIRY_MASK.width)
    return WaveField(grid=psi.grid, values=psi.values * np.cos(0.5 * np.pi * s) ** 2,
                     time=psi.time)


def _airy_run(psi0: WaveField, v_fn, sol: NswpSolution, grid: Grid1D, dt: float,
              t_end: float, consts: PhysicalConstants):
    """Propagate the Airy packet ``psi0`` under ``v_fn`` with the absorbing
    mask, one snapshot every 0.1; returns the report, the window's grid
    selector and the windowed reference density."""
    sel = (grid.x >= _AIRY_WINDOW[0]) & (grid.x <= _AIRY_WINDOW[1])
    ref_density = _airy_window_density(sol, grid, sel)
    config = PropagationConfig(dt=dt, t_end=t_end, grid=grid,
                               snapshot_stride=max(1, round(0.1 / dt)),
                               boundary=_AIRY_MASK)
    report = propagate(_taper_into_mask(psi0), v_fn, config, consts,
                       reference_density=ref_density, window=_AIRY_WINDOW)
    return report, sel, ref_density


def run_airy_free(
    B: float = 1.0,
    grid: Grid1D = _AIRY_GRID,
    dt: float = 4e-3,
    t_end: float = 2.0,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """Free-space propagation of the Airy packet with absorbing boundaries.

    The domain extends far to the left of the comparison window: the
    accelerating packet is fed by right-moving components of the oscillatory
    tail, so the undamped region must cover every tail point whose local
    group velocity can reach the window within t_end.
    """
    sol = airy_free_solution(B, consts, t_max=t_end + 1.0)
    A = sol.shape.A
    m = consts.mass

    # supporting potential must vanish identically (free space)
    v_lin = StaticPotential.linear(A)
    vmax = max(
        float(np.max(np.abs(v_nswp(sol, v_lin, grid.x, t)))) for t in (0.0, 0.7, 1.6)
    )
    psi0 = analytic_psi(sol, grid, 0.0)
    peak_psi = float(np.max(np.abs(psi0.values)))
    construction_residual = max(
        tdse_residual(sol, v_lin, grid, t, margin=16) for t in (0.1, 1.0)
    ) / peak_psi
    report, sel, ref_density = _airy_run(psi0, lambda x, t: np.zeros_like(x), sol,
                                         grid, dt, t_end, consts)

    # main-lobe peak displacement vs B^3 t^2 / (4 m^2)
    times = np.asarray(report.times)
    peaks = np.array([
        _quadratic_peak(grid.x[sel], snap.density()[sel]) for snap in report.snapshots
    ])
    displacement = peaks - peaks[0]
    expected = B**3 * times**2 / (4.0 * m**2)
    far = expected >= 1.0
    if not np.any(far):
        raise RangeError(
            f"peak_follows_quadratic_law compares displacements >= 1, but at "
            f"B = {B:g} the largest expected displacement B^3 t^2 / 4m^2 is "
            f"{np.max(expected):.3g}")
    peak_err = float(np.max(np.abs(displacement[far] - expected[far]) / expected[far]))

    density_mismatch = float(np.max(report.shape_deviation))

    # windowed <P> grows linearly at rate A: H_c carries the constant force
    p_window = np.array([
        _windowed_momentum(snap, sel, consts.hbar) for snap in report.snapshots
    ])
    slope = float(np.polyfit(times, p_window, 1)[0])
    force_err = abs(slope - A) / A

    absorbed = _window_content_loss(report, ref_density, sel, grid.dx)

    checks = [
        CheckResult("supporting_potential_is_zero", vmax, 1e-10, vmax < 1e-10),
        CheckResult("construction_tdse_residual", construction_residual, 1e-4,
                    construction_residual < 1e-4, note="relative to max|Psi|"),
        CheckResult("peak_follows_quadratic_law", peak_err, 0.02,
                    peak_err < 0.02, note="relative, displacement >= 1"),
        CheckResult("windowed_density_mismatch", density_mismatch, 1e-3,
                    density_mismatch < 1e-3, note="sup, relative to peak"),
        CheckResult("hc_constant_force", force_err, 0.05, force_err < 0.05,
                    note="d<P_window>/dt vs A, relative"),
        CheckResult("window_content_loss", absorbed, 0.01, absorbed < 0.01),
    ]
    return ScenarioResult(
        name="airy_free",
        report=report,
        checks=checks,
        extras={"B": B, "A": A, "dt": dt, "t_end": t_end,
                "window": list(_AIRY_WINDOW), "mask_width": _AIRY_MASK.width,
                "mask_strength": _AIRY_MASK.strength},
        solution=sol,
    )


# ---------------------------------------------------------------------------
# Forced Airy packet (Berry-Balazs with time-dependent uniform force)
# ---------------------------------------------------------------------------

def phi0_forced_airy(A: float, F: Callable[[float], float], E_f: float, t: float,
                     consts: PhysicalConstants) -> float:
    """Global phase of the forced Airy packet from the nested-integral formula.

    phi0 = -E_f t/hbar - A^2 t^3/(3 m hbar)
           - (1/(2 m hbar)) * int_0^t I1^2 dtau
           - (A/(m hbar)) * [ int_0^t tau I1 dtau + int_0^t I2 dtau ],
    with I1(tau) = int_0^tau F and I2(tau) = int_0^tau I1.

    Primitives: F is sampled on one uniform mesh over [0, t]; I1 and I2 are
    cumulative Simpson sums (``cumulative_simpson_uniform``) on that mesh
    and the three outer integrals are composite Simpson sums
    (``simpson_uniform``) of I1^2, tau I1 and I2. ``mesh_doubling`` doubles
    the mesh until phi0 is stable to 1e-10. The direct route,
    ``NswpSolution.phi0_direct``, uses adaptive Simpson (``integrate_time``)
    over d_dot from ``ForceTrajectory``'s piecewise-quintic antiderivative
    of F (``cumulative_antiderivative``). This route uses none of those, so
    the two share no primitive and an error in either shows as a
    disagreement.
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


def forced_airy_solution(B: float = 1.0, F: Callable[[float], float] = lambda t: 0.0,
                         consts: PhysicalConstants = PhysicalConstants(),
                         t_max: float = 10.0) -> NswpSolution:
    """Closed-form Airy packet pushed by the uniform force A + F(t)."""
    A = B**3 / (2.0 * consts.mass)
    shape = AiryShape(A=A, energy=0.0, consts=consts)
    traj = ForceTrajectory(A, F, consts, t_max=t_max)
    return NswpSolution(shape, traj, gauge_linear_case(A, traj),
                        consts=consts, t_max=t_max)


def run_airy_forced(
    F: Callable[[float], float],
    force_label: str = "custom",
    B: float = 1.0,
    grid: Grid1D = _AIRY_GRID,
    dt: float = 4e-3,
    t_end: float = 2.0,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """Propagation under V(x, t) = -F(t) x with Airy shape."""
    sol = forced_airy_solution(B, F, consts, t_max=t_end + 1.0)
    A = sol.shape.A

    # the supporting potential reduces to -F(t) x
    v_lin = StaticPotential.linear(A)
    vdev = max(
        float(np.max(np.abs(v_nswp(sol, v_lin, grid.x, t) + F(t) * grid.x)))
        for t in (0.0, 0.6, 1.5)
    )
    psi0 = analytic_psi(sol, grid, 0.0)
    peak_psi = float(np.max(np.abs(psi0.values)))
    construction_residual = max(
        tdse_residual(sol, v_lin, grid, t, margin=16) for t in (0.1, 1.0)
    ) / peak_psi

    # dual-route phase: nested-integral formula vs direct quadrature
    ts = np.linspace(0.0, min(3.0, sol.t_max - 0.5), 13)
    phase_dev = max(
        abs(phi0_forced_airy(A, F, sol.E_f, t, consts) - direct)
        for t, direct in zip(ts, sol.phi0_direct(ts))
    )
    report, sel, ref_density = _airy_run(psi0, lambda x, t: -F(t) * x, sol,
                                         grid, dt, t_end, consts)
    density_mismatch = float(np.max(report.shape_deviation))
    absorbed = _window_content_loss(report, ref_density, sel, grid.dx)

    checks = [
        CheckResult("supporting_potential_is_minus_Fx", vdev, 1e-10, vdev < 1e-10),
        CheckResult("construction_tdse_residual", construction_residual, 1e-4,
                    construction_residual < 1e-4, note="relative to max|Psi|"),
        CheckResult("phase_dual_route", phase_dev, 1e-8, phase_dev < 1e-8,
                    note="nested-integral phi0 vs direct quadrature"),
        CheckResult("windowed_density_mismatch", density_mismatch, 1e-3,
                    density_mismatch < 1e-3, note="sup, relative to peak"),
        CheckResult("window_content_loss", absorbed, 0.01, absorbed < 0.01),
    ]
    return ScenarioResult(
        name=f"airy_forced_{force_label}",
        report=report,
        checks=checks,
        extras={"B": B, "A": A, "dt": dt, "t_end": t_end, "force": force_label,
                "window": list(_AIRY_WINDOW)},
        solution=sol,
    )


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

def run_gaussian_spreading(consts: PhysicalConstants = PhysicalConstants()) -> ScenarioResult:
    """Free Gaussian spreading control: width must follow the analytic law.

    sigma(t) = sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2) with sigma0 = 1,
    to t = 2 at dt = 1e-3; a propagator that kept this packet rigid would
    be broken.
    """
    sigma0, dt, t_end = 1.0, 1e-3, 2.0
    grid = Grid1D(-30.0, 30.0, 2048)
    x = grid.x
    psi = np.exp(-(x**2) / (4.0 * sigma0**2)).astype(complex)
    psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=grid.dx))
    initial = WaveField(grid=grid, values=psi, time=0.0)

    config = PropagationConfig(dt=dt, t_end=t_end, grid=grid, snapshot_stride=200)
    report = propagate(initial, lambda xx, t: np.zeros_like(xx), config, consts)

    times = np.asarray(report.times)
    width = np.sqrt(np.array([
        observables(s, None, consts).variance for s in report.snapshots
    ]))
    law = sigma0 * np.sqrt(1.0 + (consts.hbar * times / (2 * consts.mass * sigma0**2)) ** 2)
    width_err = float(np.max(np.abs(width - law) / law))
    final_dev = float(report.shape_deviation[-1])

    checks = [
        CheckResult("width_follows_spreading_law", width_err, 0.01,
                    width_err < 0.01, note="relative"),
        CheckResult("spreading_detected", final_dev, 1e-2, final_dev > 1e-2,
                    note="shape deviation must EXCEED threshold"),
    ]
    return ScenarioResult(
        name="gaussian_spreading_control",
        report=report,
        checks=checks,
        extras={"sigma0": sigma0, "dt": dt, "t_end": t_end},
    )


def run_sho_timedep_frequency(
    omega0: float = 1.0,
    modulation: float = 0.2,
    grid: Grid1D = None,
    dt: float = None,
    consts: PhysicalConstants = PhysicalConstants(),
) -> ScenarioResult:
    """Ground state shifted by 2 under V = m w(t)^2 x^2 / 2,
    w = w0 (1 + eps sin w0 t), to t_end = 10/omega0 rounded to whole steps.

    With eps = 0 this is the Schrodinger NSWP (coherent oscillation); with
    eps > 0 no trajectory keeps the density rigid and the deviation grows.
    Shape deviation is measured against the initial profile translated to
    the instantaneous centroid (the most charitable comparison).

    The default grid is 1024 points on +-12/sqrt(omega0). With the default
    dt = 4e-3/omega0, dt max|V| is 0.288 (1 + |eps|)^2 for every omega0
    (hbar = m = 1); where that reaches the step guard's 0.5, dt is cut. A
    snapshot is recorded every 0.1/omega0 for any dt.
    """
    amplitude = 2.0
    m = consts.mass
    if grid is None:
        half_width = 12.0 / math.sqrt(omega0)
        grid = Grid1D(-half_width, half_width, 1024)
    if dt is None:
        w_max = omega0 * (1.0 + abs(modulation))
        v_max = 0.5 * m * w_max**2 * max(grid.x_min**2, grid.x_max**2)
        dt = _guarded_dt(4e-3 / omega0, v_max, consts)
    t_end = dt * round(10.0 / (omega0 * dt))
    v_static = StaticPotential.harmonic(omega0, m)
    pair = lowest_eigenpairs(v_static, grid, consts, 1)[0]
    initial = shift_field(pair.shape, amplitude)

    def v_fn(x, t):
        w = omega0 * (1.0 + modulation * np.sin(omega0 * t))
        return 0.5 * m * w**2 * x**2

    config = PropagationConfig(dt=dt, t_end=t_end, grid=grid,
                               snapshot_stride=max(1, round(0.1 / (omega0 * dt))))
    report = propagate(initial, v_fn, config, consts)
    max_dev = float(np.max(report.shape_deviation))

    if modulation == 0.0:
        checks = [CheckResult("control_stays_rigid", max_dev, CONTROL_THRESHOLD,
                              max_dev < CONTROL_THRESHOLD)]
    else:
        checks = [CheckResult("spread_detected", max_dev, SPREAD_THRESHOLD,
                              max_dev > SPREAD_THRESHOLD,
                              note="deviation must EXCEED threshold")]
    return ScenarioResult(
        name=f"sho_timedep_freq_eps{modulation:g}",
        report=report,
        checks=checks,
        extras={"omega0": omega0, "modulation": modulation,
                "amplitude": amplitude, "dt": dt, "t_end": t_end},
    )


def run_sho_timedep_with_control(**kwargs) -> ScenarioResult:
    """``run_sho_timedep_frequency(**kwargs)`` against the same run with
    modulation 0: the modulated packet must spread, the control must not."""
    modulated = run_sho_timedep_frequency(**kwargs)
    control = run_sho_timedep_frequency(**{**kwargs, "modulation": 0.0})
    record = no_nswp_for_time_dependent_frequency(modulated.report, control.report)
    check = CheckResult("spread_detected_with_static_control",
                        record["modulated_max_deviation"], record["spread_threshold"],
                        record["pass"],
                        note="expected deviation growth demonstrates the negative claim")
    return ScenarioResult(name="sho_timedep_freq", report=modulated.report,
                          checks=[check], extras=record)


def run_corrupted_phase(consts: PhysicalConstants = PhysicalConstants()) -> ScenarioResult:
    """Self-test without propagation: the TDSE residual of the shifted SHO
    packet on 2048 points over [-8, 8] must inflate at least 100x when its
    global phase is dropped."""
    grid = Grid1D(-8.0, 8.0, 2048)
    sol, v = sho_solution(grid=grid, consts=consts, t_max=20.0)
    peak = float(np.max(np.abs(analytic_psi(sol, grid, 1.0).values)))
    good = tdse_residual(sol, v, grid, 1.0) / peak
    bad = tdse_residual(sol, v, grid, 1.0, drop_phi0=True) / peak
    check = CheckResult("residual_inflates_100x", bad / good, 100.0, bad > 100.0 * good,
                        note="corrupted/good TDSE residual ratio")
    return ScenarioResult(name="corrupted_phase_control", report=None, checks=[check],
                          extras={"good_residual": good, "corrupted_residual": bad})


# ---------------------------------------------------------------------------
# Scenario table
# ---------------------------------------------------------------------------

GRID_KEYS = {"x_min": "x_min", "x_max": "x_max", "n_points": "n"}  # key -> Grid1D field
FORCE_KEYS = ("force_kind", "force_amp", "force_freq")


def grid_from(config: dict, default: Grid1D) -> Grid1D:
    """``default`` with the grid keys of ``config`` in place of its fields."""
    return replace(default, **{f: config[k] for k, f in GRID_KEYS.items() if k in config})


def consts_from(config: dict) -> PhysicalConstants:
    return PhysicalConstants(**{k: config[k] for k in ("hbar", "mass") if k in config})


def uniform_force(force_kind: str = "sin", force_amp: float = 0.3,
                  force_freq: float = 2.0) -> tuple[Callable[[float], float], str]:
    """F(t) and its label: ``none`` (0), ``const`` (force_amp) or ``sin``
    (force_amp sin(force_freq t))."""
    if force_kind == "none":
        return (lambda t: 0.0), "none"
    if force_kind == "const":
        return (lambda t: force_amp), f"const{force_amp:g}"
    if force_kind == "sin":
        return (lambda t: force_amp * np.sin(force_freq * t)), f"sin{force_amp:g}x{force_freq:g}"
    raise ConfigurationError(f"unknown force_kind '{force_kind}'")


def _on_linear_v(sol: NswpSolution) -> tuple[NswpSolution, StaticPotential]:
    return sol, StaticPotential.linear(sol.shape.A)


@dataclass(frozen=True)
class Scenario:
    """A run the command line offers by name.

    ``run(**kwargs)`` returns a ScenarioResult. Every scenario takes hbar and
    mass (as ``consts``) besides its own ``keys``; one with a default
    ``grid`` also takes the grid keys (as ``grid``) and, if it has a
    ``build``, ``build(**kwargs, t_max=...)`` returns its closed-form packet
    and static potential. ``run`` and ``build`` are lambdas, so the module
    functions they call are looked up when called, not when this table is
    built.
    """

    run: Callable[..., ScenarioResult]
    keys: tuple = ()
    grid: Optional[Grid1D] = None
    build: Optional[Callable] = None
    propagates: bool = True

    @property
    def config_keys(self) -> set:
        return {*self.keys, "hbar", "mass", *(GRID_KEYS if self.grid else ())}

    def kwargs(self, config: dict) -> dict:
        """Keyword arguments of ``run`` and ``build`` from a flat config."""
        kw = {"n" if k == "mode_index" else k: v
              for k, v in config.items() if k in self.keys and k not in FORCE_KEYS}
        kw["consts"] = consts_from(config)
        if self.grid is not None:
            kw["grid"] = grid_from(config, self.grid)
        if "force_kind" in self.keys:
            kw["F"], kw["force_label"] = uniform_force(
                **{k: config[k] for k in FORCE_KEYS if k in config})
        return kw


SCENARIOS = {
    "sho": Scenario(
        run=lambda **kw: run_sho_shifted(**kw),
        keys=("mode_index", "amplitude", "omega", "dt"), grid=_SHO_GRID,
        build=lambda **kw: sho_solution(**kw)),
    "airy-free": Scenario(
        run=lambda **kw: run_airy_free(**kw),
        keys=("B", "dt", "t_end"), grid=_AIRY_GRID,
        # the grid only samples a closed-form Airy packet
        build=lambda grid, **kw: _on_linear_v(airy_free_solution(**kw))),
    "airy-forced": Scenario(
        run=lambda **kw: run_airy_forced(**kw),
        keys=("B", "dt", "t_end", *FORCE_KEYS), grid=_AIRY_GRID,
        build=lambda grid, force_label, **kw: _on_linear_v(forced_airy_solution(**kw))),
    "gaussian-control": Scenario(run=lambda **kw: run_gaussian_spreading(**kw)),
    "sho-timedep-freq": Scenario(run=lambda **kw: run_sho_timedep_with_control(**kw),
                                 keys=("modulation",)),
    "corrupted-phase": Scenario(run=lambda **kw: run_corrupted_phase(**kw),
                                propagates=False),
}
