import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nswp import (AbsorbingMask, GaugeFunction, Grid1D, NswpSolution,
                  PhysicalConstants, Polynomial, PropagationConfig, RunReport,
                  SampledShape, Sinusoid, StaticPotential, Trajectory, WaveField,
                  analytic_psi, classical_motion_check, energy_split_check,
                  htilde_residual, infinitesimal_evolution_check, lowest_eigenpairs,
                  no_nswp_for_time_dependent_frequency, propagate,
                  rigid_shape_deviation, shape_deviation, shift_field)
from nswp.constructor import gauge_sho_case
from nswp.errors import ConfigurationError
from nswp.constructor import RESIDUAL_MARGIN
from nswp.grids import interior, kinetic_matrix, shift_values

CONSTS = PhysicalConstants()
OMEGA = 1.0
PERIOD = 2.0 * math.pi / OMEGA
REST = Polynomial((0.0,))  # d(t) = 0


@pytest.fixture(scope="module")
def sho_sol():
    grid = Grid1D(-8.0, 8.0, 256)
    v = StaticPotential.harmonic(OMEGA)
    pair = lowest_eigenpairs(v, grid, CONSTS, 1)[0]
    traj = Sinusoid(amplitude=2.0, omega=OMEGA)
    sol = NswpSolution(SampledShape.from_eigenpair(pair), traj,
                       gauge_sho_case(OMEGA, traj, CONSTS), consts=CONSTS)
    return sol, v, grid, pair


def test_htilde_residual_sho(sho_sol):
    sol, v, grid, pair = sho_sol
    t = 0.37 * PERIOD
    psi = analytic_psi(sol, grid, t)
    r = htilde_residual(psi, v, sol.trajectory, CONSTS, pair.energy, t)
    assert r < 1e-4


def test_htilde_rest_reduces_to_eigen_residual(sho_sol):
    _, v, grid, pair = sho_sol
    r = htilde_residual(pair.shape, v, REST, CONSTS, pair.energy, 0.0)
    assert r < 1e-4


def test_htilde_detects_off_trajectory_shape(sho_sol):
    sol, v, grid, pair = sho_sol
    t = 0.2 * PERIOD
    corrupted = shift_field(analytic_psi(sol, grid, t), 0.1)
    r = htilde_residual(corrupted, v, sol.trajectory, CONSTS, pair.energy, t)
    assert r > 1e-2


def sine_first_derivative_matrix(n, dx):
    """psi -> psi' of the sine series through psi, as a dense matrix: with
    S the orthonormal DST-I matrix, c = S psi, and psi' at x_i (i dx from
    the left wall) is sum_j c_j sqrt(2/N) k_j cos(k_j i dx), N = n + 1."""
    j = np.arange(1, n + 1)
    k = np.pi * j / ((n + 1) * dx)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    c = np.sqrt(2.0 / (n + 1)) * np.cos(np.pi * np.outer(j, j) / (n + 1))
    return (c * k) @ s


def htilde_residual_by_derivative_arrays(psi, v, traj, consts, E_f, t):
    """The residual from the dense sine-DVR kinetic matrix and sine-series
    first-derivative matrix over the whole grid, and the size of its
    largest term, both relative to ||psi|| over the points the default
    margin keeps."""
    hbar, m = consts.hbar, consts.mass
    d, d_dot, _ = traj.eval(t)
    values, grid = psi.values, psi.grid
    terms = (kinetic_matrix(grid.n, grid.dx, consts) @ values,
             (v(grid.x - d) - (E_f - 0.5 * m * d_dot**2)) * values,
             -d_dot * (-1j * hbar) * (sine_first_derivative_matrix(grid.n, grid.dx) @ values))
    sel = interior(grid, RESIDUAL_MARGIN)
    den = np.linalg.norm(values[sel])
    return (np.linalg.norm(sum(terms)[sel]) / den,
            max(np.linalg.norm(term[sel]) for term in terms) / den)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(32, 400), seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1.0),
       amplitude=st.floats(-3.0, 3.0), omega=st.floats(0.5, 2.0), t=st.floats(0.0, 5.0),
       E_f=st.floats(0.0, 5.0))
@example(n=255, seed=1, noise=0.0, amplitude=2.0, omega=1.0, t=0.7, E_f=0.5)
@example(n=256, seed=2, noise=0.2, amplitude=-1.0, omega=1.5, t=2.1, E_f=1.5)
def test_htilde_residual_is_the_derivative_array_formula(n, seed, noise, amplitude, omega,
                                                         t, E_f):
    rng = np.random.default_rng(seed)
    grid = Grid1D(-10.0, 10.0, n)
    d = amplitude * math.sin(omega * t)
    psi = np.exp(-((grid.x - d) ** 2) / 2.0 + 1j * rng.uniform(-3.0, 3.0) * grid.x)
    psi = psi + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))
    consts = PhysicalConstants(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    args = (WaveField(grid=grid, values=psi), StaticPotential.harmonic(omega, consts.mass),
            Sinusoid(amplitude=amplitude, omega=omega), consts, E_f, t)
    reference, scale = htilde_residual_by_derivative_arrays(*args)
    assert abs(htilde_residual(*args) - reference) <= 1e-12 * scale


def test_infinitesimal_evolution_second_order(sho_sol):
    sol = sho_sol[0]
    t = 0.9
    e1 = infinitesimal_evolution_check(sol, sho_sol[2], t, 1e-3)
    e2 = infinitesimal_evolution_check(sol, sho_sol[2], t, 5e-4)
    ratio = e1 / e2
    assert 4.0 * 0.75 < ratio < 4.0 * 1.25


def test_infinitesimal_evolution_rest(sho_sol):
    _, _, grid, pair = sho_sol
    sol = NswpSolution(SampledShape.from_eigenpair(pair), REST,
                       GaugeFunction.zero(), consts=CONSTS)
    err = infinitesimal_evolution_check(sol, grid, 0.8, 1e-3)
    assert err < 1e-9


def test_dropping_force_factor_degrades_to_first_order(sho_sol):
    sol, _, grid, _ = sho_sol
    t = 0.9
    e1 = infinitesimal_evolution_check(sol, grid, t, 1e-3, drop_force_factor=True)
    e2 = infinitesimal_evolution_check(sol, grid, t, 5e-4, drop_force_factor=True)
    ratio = e1 / e2
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def test_classical_motion_sho_run(sho_result):
    checks = classical_motion_check(sho_result.report, sho_result.solution.trajectory,
                                    CONSTS)
    assert all(c.passed for c in checks)


def test_classical_motion_detects_wrong_trajectory(sho_result):
    wrong = Sinusoid(amplitude=2.1, omega=1.0)
    checks = classical_motion_check(sho_result.report, wrong, CONSTS)
    assert not all(c.passed for c in checks)


class ForceDropped(Trajectory):
    """``traj`` with d_ddot replaced by 0."""

    def __init__(self, traj):
        self.traj = traj

    def eval(self, t):
        d, d_dot, _ = self.traj.eval(t)
        return d, d_dot, 0.0


def test_classical_motion_detects_dropped_force(sho_result):
    checks = classical_motion_check(
        sho_result.report, ForceDropped(sho_result.solution.trajectory), CONSTS)
    assert [c.passed for c in checks] == [True, True, False]
    assert checks[2].name == "momentum_rate_tracks_force"


def test_classical_motion_needs_uniform_snapshots():
    report = RunReport(times=[0.0, 0.1, 0.2, 0.3, 0.45], centroid=[0.0] * 5,
                       momentum_mean=[0.0] * 5)
    with pytest.raises(ConfigurationError, match="uniformly spaced"):
        classical_motion_check(report, REST, CONSTS)
    report.times[-1] = 0.4
    assert all(c.passed for c in classical_motion_check(report, REST, CONSTS))


def test_energy_split_sho_run(sho_result):
    v = StaticPotential.harmonic(1.0)
    checks = energy_split_check(sho_result.report, sho_result.solution, v, CONSTS)
    assert all(c.passed for c in checks)
    # <H> = E_0 + m A^2 omega^2 / 2 = E_0 + 2
    e0 = sho_result.extras["energy"]
    assert np.mean(sho_result.report.energy_mean) == pytest.approx(e0 + 2.0, abs=1e-3)


def test_check_result_serialization(sho_result):
    d = sho_result.checks[0].to_dict()
    assert set(d) == {"name", "value", "tolerance", "pass", "note"}


def test_negative_claim_record(timedep_result):
    # the trap scenario's extras are the record of its two runs
    record = timedep_result.extras
    assert record["pass"]
    assert record["spread_detected"]
    assert record["control_ok"]
    assert record["first_exceed_time"] is not None
    assert record["first_exceed_time"] < timedep_result.report.times[-1]
    assert record["modulated_max_deviation"] > 1e-2
    assert record["control_max_deviation"] < 5e-4
    # a spreading run as its own control fails the control half
    report = timedep_result.report
    own = no_nswp_for_time_dependent_frequency(report, report)
    assert own["spread_detected"] and not own["control_ok"] and not own["pass"]


# --- shape deviation, measured from the snapshots ----------------------------

def moving_gaussian_density(grid, v0):
    """t -> |psi|^2 of the free unit Gaussian launched at speed v0."""
    def density(t):
        var = 0.5 * (1.0 + t**2)
        return np.exp(-((grid.x - v0 * t) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return density


def launched_gaussian(grid, v0):
    psi = np.exp(-grid.x**2 / 2.0 + 1j * v0 * grid.x) / np.pi**0.25
    return WaveField(grid=grid, values=psi)


def test_shape_deviation_is_the_in_loop_formula_on_a_masked_window():
    # the formula propagate applied at each snapshot, before the measurement
    # moved to the verifier: sup over the window of |rho - rho_ref(t)|,
    # relative to the peak of rho_ref(t_start) at the window points
    grid = Grid1D(-20.0, 12.0, 512)
    window = (-4.0, 6.0)
    sel = (grid.x >= window[0]) & (grid.x <= window[1])
    exact = moving_gaussian_density(grid, 2.0)

    def reference(t):
        return exact(t)[sel]

    config = PropagationConfig(dt=1e-2, t_end=1.0, grid=grid, snapshot_stride=10,
                               mask=AbsorbingMask(width=4.0, strength=40.0))
    report = propagate(launched_gaussian(grid, 2.0), lambda x, t: np.zeros_like(x),
                       config, CONSTS)
    ref_peak = float(np.max(reference(config.t_start)))
    inline = []
    for psi, t in zip(report.snapshots, report.times):
        rho = np.abs(psi.values) ** 2
        inline.append(float(np.max(np.abs(rho[sel] - reference(t))) / ref_peak))
    assert shape_deviation(report, reference, sel) == inline
    # V = 0: the split step is exact, and the mask has not reached the window
    assert len(inline) == 11 and 0.0 < max(inline) < 1e-6


def test_rigid_shape_deviation_is_the_in_loop_formula_between_walls():
    # a Dirichlet run without a reference density used to translate the
    # initial density to the measured centroid, relative to its own peak
    # the zero-shift FFT round trip of rho0 can peak an ulp off rho0 (on
    # 200 points the complex route peaks an ulp below), so the reference's
    # peak is taken from rho0 itself; rho0 is real and takes the real shift
    grid = Grid1D(-12.0, 12.0, 200)
    initial = launched_gaussian(grid, 1.0)
    config = PropagationConfig(dt=1e-2, t_end=1.5, grid=grid, snapshot_stride=15)
    report = propagate(initial, lambda x, t: np.zeros_like(x), config, CONSTS)
    rho0 = initial.density()
    ref_peak = float(np.max(rho0))
    inline = []
    for psi, c in zip(report.snapshots, report.centroid):
        ref = shift_values(rho0, c - report.centroid[0], grid.dx)
        rho = np.abs(psi.values) ** 2
        inline.append(float(np.max(np.abs(rho - ref)) / ref_peak))
    assert rigid_shape_deviation(report) == inline
    # the free packet spreads away from the rigid reference, and follows
    # its closed-form density to the accuracy of the step
    assert inline[-1] > 1e-1
    assert max(shape_deviation(report, moving_gaussian_density(grid, 1.0))) < 1e-4
