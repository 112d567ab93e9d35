import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import nswp.cases
from nswp import Grid1D, NswpSolution, PhysicalConstants, observables
from nswp.cases import (SCENARIOS, airy_forced_case, phi0_forced_airy, run_airy_forced,
                        run_corrupted_phase, run_sho_shifted, run_sho_timedep_frequency,
                        trap_envelope_half_width, uniform_force)
from nswp.cli import main
from nswp.errors import AccuracyError, RangeError
from nswp.propagator import STEP_TOLERANCE

from conftest import check_by_name

CONSTS = PhysicalConstants()


def test_sho_scenario_passes(sho_result):
    for c in sho_result.checks:
        assert c.passed, f"{c.name}: {c.value:.3e} vs {c.tolerance:.1e}"
    assert sho_result.passed
    # FD ground energy close to 1/2
    assert sho_result.extras["energy"] == pytest.approx(0.5, abs=1e-4)


def test_sho_period_end_overlap(sho_result):
    c = check_by_name(sho_result, "period_end_overlap")
    assert c.value < 1e-6


def test_airy_free_scenario_passes(airy_free_result):
    for c in airy_free_result.checks:
        assert c.passed, f"{c.name}: {c.value:.3e} vs {c.tolerance:.1e}"
    assert airy_free_result.extras["A"] == pytest.approx(0.5)


def test_airy_free_windowed_momentum_rate_is_the_force(airy_free_result):
    # with the 5-point <P> stencil the slope of the windowed <P> matches
    # A = 1/2 to 4.1e-6 on the default 1536 points (7.6e-7 on 4096, 2.4e-5
    # on 1024, studies/airy_points.py); the 3-point np.gradient stencil read
    # 2.7e-4 on 4096, its own truncation error
    assert check_by_name(airy_free_result, "hc_constant_force").value < 1e-5


def test_airy_forced_scenario_passes(airy_forced_result):
    for c in airy_forced_result.checks:
        assert c.passed, f"{c.name}: {c.value:.3e} vs {c.tolerance:.1e}"


@pytest.mark.parametrize("fixture, run_fine", [
    ("airy_free_result", lambda: run_airy_forced(*uniform_force("none"), dt=2.5e-3)),
    ("airy_forced_result", lambda: run_airy_forced(*uniform_force(), dt=2.5e-3)),
], ids=["airy-free", "airy-forced"])
def test_airy_default_step_is_converged(fixture, run_fine, request):
    # every check value at the default dt = 1e-2 lies within 2 % of its
    # tolerance of the value at a 4x shorter step (measured: at most 0.76 %
    # for airy-free, 0.11 % for airy-forced, its peak check); snapshots stay
    # every 0.1
    result, fine = request.getfixturevalue(fixture), run_fine()
    assert result.extras["dt"] == 1e-2
    assert np.asarray(result.report.times) == pytest.approx(0.1 * np.arange(21),
                                                            abs=1e-12)
    assert [c.name for c in result.checks] == [c.name for c in fine.checks]
    for c, f in zip(result.checks, fine.checks):
        assert abs(c.value - f.value) <= 0.02 * c.tolerance, c.name


def test_construction_residual_mesh_keeps_the_dx_of_4096_points():
    # the Airy residual's mesh has the run grid's span and at most the dx of
    # 4096 points on [-36, 12]: that grid itself at the default span for any
    # run grid up to 4096 points, the run grid where it is finer, and
    # a mesh of at most that dx on a wider span; a case that names no dx takes
    # the run grid
    airy = airy_forced_case()
    for n in (512, 1536, 4096):
        assert airy.residual_mesh(Grid1D(-36.0, 12.0, n)) == Grid1D(-36.0, 12.0, 4096)
    fine = Grid1D(-36.0, 12.0, 5000)
    assert airy.residual_mesh(fine) is fine
    # 72 / (48 / 4095) = 6142.5 cells
    assert airy.residual_mesh(Grid1D(-60.0, 12.0, 1536)) == Grid1D(-60.0, 12.0, 6144)
    sho = nswp.cases.sho_case()
    assert sho.residual_mesh(sho.sol.shape.field.grid) is sho.sol.shape.field.grid


def test_airy_forced_checks_hold_for_a_run_shorter_than_their_times():
    # the support check samples V_nswp at t = 1.5 and the phase check
    # meshes up to 2.0: the force and phi0 caches reach 1 past both. No
    # snapshot moves by 1 before t = 0.4, so the peak check holds every
    # one of them to an absolute error; both members of the family
    for force_kind in ("none", "sin"):
        result = run_airy_forced(*uniform_force(force_kind), t_end=0.4)
        assert result.solution.t_max == 2.5
        assert len(result.checks) == 7
        for c in result.checks:
            assert c.passed, f"{force_kind} {c.name}: {c.value:.3e} vs {c.tolerance:.1e}"


def test_airy_forced_default_cache_horizon_is_unchanged(airy_forced_result):
    assert airy_forced_result.solution.t_max == 3.0


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(amp=st.floats(-0.45, 0.45), freq=st.floats(0.5, 12.0))
@example(amp=-0.45, freq=12.0)
def test_airy_forced_passes_over_the_sin_force_box(amp, freq):
    # the default step holds every check for any sin force in the box; the
    # fastest force is the one whose worst check ratio grows most with dt
    result = run_airy_forced(*uniform_force("sin", amp, freq))
    for c in result.checks:
        assert c.passed, f"{c.name}: {c.value:.3e} vs {c.tolerance:.1e}"


def test_gaussian_control(gaussian_result):
    width = check_by_name(gaussian_result, "width_follows_spreading_law")
    assert width.passed
    spread = check_by_name(gaussian_result, "spreading_detected")
    # the control must SPREAD; a rigid result would mean a broken propagator
    assert spread.value > 1e-2
    assert gaussian_result.passed


def test_timedep_frequency_negative_claim(timedep_result):
    assert check_by_name(timedep_result, "spread_detected_with_static_control").passed
    assert timedep_result.extras["spread_detected"]
    assert timedep_result.extras["control_ok"]


def test_phi0_forced_formula_unforced_limit():
    # with F = 0 the nested-integral formula collapses to the free closed form
    A = 0.5
    for t in (0.5, 1.5, 2.5):
        val = phi0_forced_airy(A, np.zeros_like, 0.0, t, CONSTS)
        assert abs(val + A**2 * t**3 / 3.0) < 1e-9


def test_phi0_forced_formula_constant_force():
    # m d_ddot = A + F0: phi0 = -(A + F0)^2 t^3 / 6 - ... derived directly:
    # integrand E_f + G + m d_dot^2/2 with d = (A+F0) t^2/2, G = A d gives
    # phi0 = -[A (A+F0)/2 + (A+F0)^2/2] t^3/3
    A, F0 = 0.5, 0.3
    for t in (1.0, 2.0):
        val = phi0_forced_airy(A, lambda s: np.full_like(s, F0), 0.0, t, CONSTS)
        closed = -(0.5 * A * (A + F0) + 0.5 * (A + F0) ** 2) * t**3 / 3.0
        assert abs(val - closed) < 1e-9


def _sin_force_phi0(A, a, w, t):
    # closed form of the nested-integral formula for F = a sin(w t), E_f = 0,
    # hbar = m = 1, with I1(tau) = (a/w)(1 - cos w tau)
    sq = (a / w) ** 2 * (1.5 * t - 2.0 * math.sin(w * t) / w
                         + math.sin(2.0 * w * t) / (4.0 * w))
    tau = (a / w) * (t**2 / 2.0 - t * math.sin(w * t) / w
                     - (math.cos(w * t) - 1.0) / w**2)
    triple = (a / w) * (t**2 / 2.0 + (math.cos(w * t) - 1.0) / w**2)
    return -A**2 * t**3 / 3.0 - sq / 2.0 - A * (tau + triple)


def test_phi0_both_routes_match_sine_force_closed_form():
    # Simpson's rule is exact for F = 0 and F = const; a sine is not
    a, w = 0.3, 2.0
    F = lambda s: a * np.sin(w * s)
    sol = airy_forced_case(1.0, F, CONSTS, t_max=3.0).sol
    A = sol.shape.A
    ts = np.array([0.3, 0.9, 1.6, 2.2, 2.5])
    closed = np.array([_sin_force_phi0(A, a, w, t) for t in ts])
    # the phi0 the packet carries, in one array call
    assert np.max(np.abs(sol.phi0(ts) - closed)) < 1e-10
    for t, c in zip(ts, closed):
        assert abs(phi0_forced_airy(A, F, sol.E_f, t, CONSTS) - c) < 1e-10
        assert abs(sol.phi0_direct(float(t)) - c) < 1e-10


def test_phase_dual_route_sees_an_error_in_the_carried_phi0(monkeypatch):
    # 1e-6 t^2 added to the phi0 the packet carries leaves every density
    # unchanged; only the phase check compares that phi0 with another route
    carried = NswpSolution.phi0
    monkeypatch.setattr(NswpSolution, "phi0", lambda self, t: carried(self, t) + 1e-6 * t**2)
    result = run_airy_forced(*uniform_force(), t_end=0.4)
    assert not check_by_name(result, "phase_dual_route").passed


def test_phase_check_work_counts():
    # counts of sampled points, not timings: the 13 check times of
    # run_airy_forced's defaults. An adaptive quadrature nested in an
    # adaptive integrand made ~1.5e6 force calls here.
    a, w = 0.3, 2.0
    calls = {"F": 0, "integrand": 0}

    def F(s):
        calls["F"] += np.size(s)
        return a * np.sin(w * s)

    sol = airy_forced_case(1.0, F, CONSTS, t_max=3.0).sol
    ts = np.linspace(0.0, 2.5, 13)
    calls["F"] = 0
    for t in ts:
        phi0_forced_airy(sol.shape.A, F, sol.E_f, t, CONSTS)
    assert 0 < calls["F"] < 20_000

    integrand = sol._phi0_integrand

    def counted(t):
        calls["integrand"] += np.size(t)
        return integrand(t)

    # the route the packet carries: the points its phi0 cache samples
    sol._phi0_integrand = counted
    sol.phi0(ts)
    assert 0 < calls["integrand"] < 2_000


def test_timedep_frequency_default_t_end_is_whole_steps(timedep_result):
    # the run ends at exactly t = 10, a whole number of steps of 0.1
    assert timedep_result.report.times[-1] == 10.0


@pytest.mark.parametrize("modulation, k", [(0.5, 2), (0.7, 3), (0.9, 4)])
def test_strong_modulation_passes_through_the_one_retry(modulation, k, monkeypatch):
    # at dt = 0.1 the step error estimate passes STEP_TOLERANCE (3.6e-4,
    # 1.6e-3 and 5.2e-3), so the modulated run is taken
    # once more at dt/k, k from the dt^4 scaling of that estimate, with a
    # snapshot every k steps: the same 101 snapshot times. The control
    # shares the retried config
    outcomes, configs = [], []
    propagate = nswp.cases.propagate

    def spy(initial, v_fn, config, consts):
        configs.append(config)
        try:
            report = propagate(initial, v_fn, config, consts)
        except AccuracyError as exc:
            outcomes.append(exc.best_estimate)
            raise
        outcomes.append(report.step_error_estimate)
        return report

    monkeypatch.setattr(nswp.cases, "propagate", spy)
    result = run_sho_timedep_frequency(modulation=modulation)
    assert result.passed
    first, retried, control = outcomes
    assert first > STEP_TOLERANCE >= retried and control is None
    assert configs[1] is configs[2]
    assert configs[1].dt == pytest.approx(0.1 / k, rel=1e-15)
    assert configs[1].snapshot_stride == k
    assert result.extras["dt"] == configs[1].dt
    assert result.extras["step_error_estimate"] == retried
    times = result.report.times
    assert len(times) == 101
    assert times == pytest.approx(np.arange(101) * 0.1, abs=1e-12)


def test_trap_verify_sizes_solves_and_configures_once(monkeypatch, tmp_path):
    # the modulated run and its control share one grid and dt, one
    # eigensolve of the mode and one propagation config
    calls = {"lowest_eigenpairs": 0, "trap_start": 0}
    configs = []
    for name in calls:
        original = getattr(nswp.cases, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(nswp.cases, name, counted)
    propagate = nswp.cases.propagate

    def spy(initial, v_fn, config, consts):
        configs.append(config)
        return propagate(initial, v_fn, config, consts)
    monkeypatch.setattr(nswp.cases, "propagate", spy)
    assert main(["verify", "--scenario", "sho-timedep-freq",
                 "--out", str(tmp_path / "v")]) == 0
    assert calls == {"lowest_eigenpairs": 1, "trap_start": 1}
    assert len(configs) == 2 and configs[0] is configs[1]


@pytest.mark.parametrize("run, eighs", [(run_sho_shifted, 1), (run_sho_timedep_frequency, 2)],
                         ids=["sho", "sho-timedep-freq"])
def test_one_eigensolve_per_distinct_hamiltonian(run, eighs, monkeypatch, fresh_eigenpairs):
    # sho: the mode and the static run share T + V. The trap: the mode and
    # the static control share T + V(w0); the modulated run has its own
    calls = []
    eigh = np.linalg.eigh

    def counted(*args):
        calls.append(1)
        return eigh(*args)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert run().passed
    assert len(calls) == eighs


@pytest.mark.parametrize("consts", [CONSTS, PhysicalConstants(hbar=2.0, mass=0.5)])
def test_trap_envelope_is_the_static_packet_without_modulation(consts):
    # eps = 0: |x_c| + c sigma is largest at t = 0, where sigma = sigma0
    sigma0 = math.sqrt(consts.hbar / (2.0 * consts.mass))
    c = nswp.cases._TRAP_ENVELOPE_SIGMAS
    assert trap_envelope_half_width(0.0, consts) == 2.0 + c * sigma0


def test_trap_envelope_bounds_the_modulated_run(timedep_result):
    # max over the snapshots of |<x>| + c sigma_x, with sigma_x the run's own
    # measured width, lies under the envelope and within 1 % of it
    c = nswp.cases._TRAP_ENVELOPE_SIGMAS
    report = timedep_result.report
    obs = observables(report.snapshot_values, report.snapshots[0].grid, None, CONSTS)
    measured = float(np.max(np.abs(obs.centroid) + c * np.sqrt(obs.variance)))
    half_width = trap_envelope_half_width(0.2, CONSTS)
    assert timedep_result.report.snapshots[0].grid.x_max == half_width
    assert 0.99 * half_width < measured <= half_width


@pytest.mark.parametrize("modulation, centroid_tol, variance_tol",
                         [(0.2, 5e-5, 2e-5), (0.5, 5e-5, 2e-5), (0.0, 1e-9, 1e-9)])
def test_trap_packet_follows_husimis_law(modulation, centroid_tol, variance_tol):
    # under a quadratic V a Gaussian stays Gaussian: x_c = A u1 and
    # sigma^2 = sigma0^2 (u1^2 + u2^2), from the classical solutions of
    # u'' = -w(t)^2 u with u1(0) = 1, u1'(0) = 0 and u2(0) = 0, u2'(0) = 1
    # (Husimi, Prog. Theor. Phys. 9, 381 (1953)); here A = 2, sigma0^2 = 1/2.
    # At eps = 0.2 every snapshot meets the law to 1.8e-5 (centroid) and
    # 6.9e-6 (relative variance) while sigma^2 breathes between 0.363 and
    # 0.637; eps = 0.5, which takes the retry at dt = 0.05, to 1.4e-5 and
    # 6.9e-6; the static control to 1.1e-11 and 8.3e-11
    report = run_sho_timedep_frequency(modulation=modulation).report

    def classical(t, y):
        w2 = (1.0 + modulation * math.sin(t)) ** 2
        return [y[1], -w2 * y[0], y[3], -w2 * y[2]]

    u1, _, u2, _ = solve_ivp(classical, (0.0, report.times[-1]), [1.0, 0.0, 0.0, 1.0],
                             method="DOP853", t_eval=report.times, rtol=1e-12,
                             atol=1e-12).y
    obs = observables(report.snapshot_values, report.snapshots[0].grid, None, CONSTS)
    law = 0.5 * (u1**2 + u2**2)
    assert np.max(np.abs(obs.centroid - 2.0 * u1)) < centroid_tol
    assert np.max(np.abs(obs.variance - law) / law) < variance_tol


def test_trap_check_values_match_a_fine_reference(timedep_result):
    # reference: the modulated run on the same points at dt = 1e-3, which
    # reads 0.1714626 (0.1714624 at 2.5e-3). The check is a sup over the
    # grid's points, so a reference on other points differs by how they
    # sample it: on +-12 the sine-DVR run read 0.172795 (512 points),
    # 0.172994 (1024) and 0.173107 (256), each converged in dt
    modulated = float(np.max(timedep_result.report.shape_deviation))
    assert abs(modulated - 0.1714626) < 5e-5
    assert timedep_result.extras["modulated_max_deviation"] == modulated
    assert timedep_result.extras["control_max_deviation"] < 1e-5
    assert len(timedep_result.report.times) == 101


@pytest.mark.parametrize("n, amplitude, omega, consts, half_width, points", [
    (0, 2.0, 1.0, CONSTS, 8.0, 128),  # the paper's defaults
    (0, -2.0, 1.0, CONSTS, 8.0, 128),
    (5, 2.0, 1.0, CONSTS, 2.0 + math.sqrt(11.0) + 5.0, 165),
    (0, 2.0, 0.5, CONSTS, 2.0 + 6.0 * math.sqrt(2.0), 119),
    (0, 2.0, 1.0, PhysicalConstants(hbar=0.5), 2.0 + 6.0 * math.sqrt(0.5), 142),
])
def test_sho_grid_keeps_the_mode_tail_at_the_default_resolution(n, amplitude, omega, consts,
                                                                half_width, points):
    grid = nswp.cases.sho_grid(n, amplitude, omega, consts)
    assert grid.x_max == -grid.x_min == pytest.approx(half_width, rel=1e-15)
    assert grid.n == points
    sigma = math.sqrt(consts.hbar / (consts.mass * omega))
    assert grid.dx <= 16.0 / 127.0 * sigma < (2.0 * half_width) / (points - 2)


@pytest.mark.parametrize("n, amplitude, points", [
    (0, 20.0, 432), (0, 25.0, 613), (0, 40.0, 1349), (2, 25.0, 663)])
def test_sho_grid_resolves_the_wavenumber_of_a_wide_swing(n, amplitude, points):
    # the packet reaches k = |amplitude| / sigma^2 + (sqrt(2n + 1) + 5) / sigma
    # (sigma = 1): the carrier at the centre of its swing plus the mode's
    # tail in k, which the Nyquist wavenumber pi / dx must reach
    grid = nswp.cases.sho_grid(n, amplitude)
    assert grid.n == points
    k_reach = amplitude + math.sqrt(2 * n + 1) + 5.0
    assert grid.dx <= math.pi / k_reach < grid.width / (points - 2)


def test_sho_grid_of_omega_1000_is_past_the_dense_cap():
    # sigma = 1/sqrt(1000): resolving the carrier 2 / sigma^2 takes about
    # 3050 points
    with pytest.raises(RangeError, match="omega = 1000, .* takes 3.05e\\+03 points"):
        nswp.cases.sho_grid(omega=1000.0)


def test_sho_grid_past_the_dense_cap_raises_before_any_grid(monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(nswp.cases, "Grid1D", not_reached)
    with pytest.raises(RangeError, match="hbar = 1e-06 and mass = 1 takes .* points"):
        nswp.cases.sho_grid(consts=PhysicalConstants(hbar=1e-6))


def test_sho_snapshots_every_period_over_200_where_a_step_would_fail_the_guard():
    # omega = 3 on the paper's +-8 grid: max|V| = 288, so a step of
    # period/200 would read dt max|V| / hbar = 3.0, six times the step
    # guard; the static trap takes no step, so the run passes with a
    # snapshot every period/200 up to t_end
    result = run_sho_shifted(omega=3.0, grid=Grid1D(-8.0, 8.0, 128))
    period = 2.0 * np.pi / 3.0
    assert result.passed
    assert result.extras["dt"] == pytest.approx(period / 200.0)
    times = np.asarray(result.report.times)
    assert times[-1] == pytest.approx(period, abs=1e-12)
    assert np.diff(times) == pytest.approx(np.full(200, period / 200.0))


def test_scenario_serialization(sho_result):
    d = sho_result.to_dict()
    assert d["pass"] is True
    assert d["name"].startswith("sho_shifted")
    assert isinstance(d["checks"], list) and d["checks"]
    assert "report" not in d
    assert "times" in sho_result.report.to_dict()


def test_airy_forced_window_content_loss(airy_forced_result, airy_free_result):
    # the forced run checks mask contamination like the free one
    forced = check_by_name(airy_forced_result, "window_content_loss")
    free = check_by_name(airy_free_result, "window_content_loss")
    assert forced.passed and forced.tolerance == free.tolerance == 0.01


class Below(float):
    """A value at a floor (round-off, or the tail the walls cut off), held
    under this ceiling instead of pinned."""


# (check name, bound, value) of every scenario, in report order: a change
# to a bound, a name or the order shows here as a diff, and a value that
# moves by more than 1e-4 relative fails. A value at round-off level (None)
# is held to its bound only, one at a floor (Below) under its ceiling
CHECKS = {
    "sho": [("gauge_gives_static_sho", 1e-10, None),
            # the Gaussian tail the walls cut off (7.6e-9 of the peak at
            # d = 1.89), plus the 1e-5 time stencil's round-off (3e-11)
            ("construction_tdse_residual", 1e-4, Below(1e-7)),
            ("shape_deviation", 5e-4, Below(1e-9)),
            ("htilde_residual_max", 1e-4, Below(1e-8)),
            ("centroid_tracks_trajectory", 1e-4, Below(1e-11)),
            ("momentum_tracks_m_ddot", 1e-4, Below(1e-11)),
            ("momentum_rate_tracks_force", 1e-3, 6.49316e-08),
            ("energy_split_value", 2e-4, Below(1e-11)),
            ("energy_constant_in_time", 2e-4, None),
            ("period_end_overlap", 1e-4, None)],
    "airy-free": [("supporting_potential_is_minus_Fx", 1e-10, None),
                  ("construction_tdse_residual", 1e-4, 2.27300e-06),
                  ("phase_dual_route", 1e-8, None),
                  ("peak_follows_trajectory", 0.02, 1.57544e-04),
                  ("windowed_density_mismatch", 1e-3, 1.47261e-04),
                  ("hc_constant_force", 0.05, 4.14920e-06),
                  ("window_content_loss", 0.01, 6.66418e-07)],
    "airy-forced": [("supporting_potential_is_minus_Fx", 1e-10, None),
                    ("construction_tdse_residual", 1e-4, 2.50005e-06),
                    ("phase_dual_route", 1e-8, None),
                    ("peak_follows_trajectory", 0.02, 8.98950e-05),
                    ("windowed_density_mismatch", 1e-3, 1.62177e-04),
                    ("hc_constant_force", 0.05, 2.85230e-06),
                    ("window_content_loss", 0.01, 9.87506e-06)],
    "gaussian-control": [("width_follows_spreading_law", 0.01, Below(1e-11)),
                         ("spreading_detected", 1e-2, 0.290082)],
    "sho-timedep-freq": [("spread_detected_with_static_control", 1e-2, 0.171458)],
    # the good residual sits on the floor of the sho's construction
    # residual, so the ratio rides it: its corrupted residual is pinned and
    # its good one bounded (CORRUPTED_PHASE) instead
    "corrupted-phase": [("residual_inflates_100x", 100.0, None)],
}
# the trap's static control, which its one check compares in the record
TRAP_CONTROL = (5e-4, 4.89396e-09)
# corrupted-phase's (corrupted, good) residuals, relative to max|Psi|
CORRUPTED_PHASE = (0.332294, Below(1e-7))
# the Airy runs' checks on 4096 points over [-36, 12], the grid they
# stepped on before studies/airy_points.py chose ``_AIRY_GRID``'s count
AIRY_4096 = {
    "airy-free": [("supporting_potential_is_minus_Fx", 1e-10, None),
                  ("construction_tdse_residual", 1e-4, 2.27300e-06),
                  ("phase_dual_route", 1e-8, None),
                  ("peak_follows_trajectory", 0.02, 9.96385e-05),
                  ("windowed_density_mismatch", 1e-3, 1.47332e-04),
                  ("hc_constant_force", 0.05, 7.56699e-07),
                  ("window_content_loss", 0.01, 6.76249e-07)],
    "airy-forced": [("supporting_potential_is_minus_Fx", 1e-10, None),
                    ("construction_tdse_residual", 1e-4, 2.50005e-06),
                    ("phase_dual_route", 1e-8, None),
                    ("peak_follows_trajectory", 0.02, 7.98748e-05),
                    ("windowed_density_mismatch", 1e-3, 1.63047e-04),
                    ("hc_constant_force", 0.05, 1.05782e-05),
                    ("window_content_loss", 0.01, 1.00849e-05)],
}


def assert_pinned(name, result, pins):
    """``result``'s checks read the (check name, bound, value) ``pins``."""
    assert [(c.name, c.tolerance) for c in result.checks] == [(n, b) for n, b, _ in pins]
    for c, (_, _, value) in zip(result.checks, pins):
        if value is None:
            assert c.passed, (name, c.name, c.value)
        elif isinstance(value, Below):
            assert c.passed and c.value < value, (name, c.name, c.value)
        else:
            assert c.value == pytest.approx(value, rel=1e-4), (name, c.name, c.value)


def test_check_names_and_bounds_are_pinned(sho_result, airy_free_result,
                                           airy_forced_result, gaussian_result,
                                           timedep_result):
    results = {
        "sho": sho_result, "airy-free": airy_free_result,
        "airy-forced": airy_forced_result, "gaussian-control": gaussian_result,
        "sho-timedep-freq": timedep_result,
        # the one scenario without a session run: closed form, no propagation
        "corrupted-phase": run_corrupted_phase(),
    }
    assert set(SCENARIOS) == set(results)
    record = timedep_result.extras
    assert record["control_threshold"] == TRAP_CONTROL[0]
    assert record["control_max_deviation"] == pytest.approx(TRAP_CONTROL[1], rel=1e-4)
    assert {name: [(c.name, c.tolerance) for c in result.checks]
            for name, result in results.items()} == {
        name: [(c_name, bound) for c_name, bound, _ in checks]
        for name, checks in CHECKS.items()}
    extras = results["corrupted-phase"].extras
    assert extras["corrupted_residual"] == pytest.approx(CORRUPTED_PHASE[0], rel=1e-4)
    assert extras["good_residual"] < CORRUPTED_PHASE[1]
    for name, result in results.items():
        assert_pinned(name, result, CHECKS[name])


@pytest.mark.parametrize("scenario, force_kind, fixture", [
    ("airy-free", "none", "airy_free_result"),
    ("airy-forced", "sin", "airy_forced_result"),
])
def test_airy_runs_on_4096_points_read_their_old_values(scenario, force_kind, fixture,
                                                        request):
    # the old grid stays a regression case; the construction residual,
    # taken on its own mesh of 4096 points over the run grid's span, reads
    # the same bits on 4096 points as on the default grid's 1536
    old = run_airy_forced(*uniform_force(force_kind), grid=Grid1D(-36.0, 12.0, 4096))
    assert_pinned(scenario, old, AIRY_4096[scenario])
    default = request.getfixturevalue(fixture)
    assert default.report.grid == Grid1D(-36.0, 12.0, 1536)
    assert (check_by_name(old, "construction_tdse_residual").value
            == check_by_name(default, "construction_tdse_residual").value)
