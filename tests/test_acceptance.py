"""Acceptance suite: one test and one printed pass/fail line per criterion.

The expensive end-to-end runs come from the session-scoped fixtures in
conftest.py, so each scenario is propagated exactly once for the whole
test session.
"""

import filecmp
import json
import math

import numpy as np
import pytest

from nswp import (Grid1D, PhysicalConstants, StaticPotential, analytic_psi,
                  htilde_residual, infinitesimal_evolution_check,
                  lowest_eigenpairs, tdse_residual)
from nswp.cases import airy_forced_case
from nswp.cli import main as cli_main

from conftest import check_by_name

CONSTS = PhysicalConstants()


def report(n, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {n} ({label}): {detail}")
    assert passed, f"criterion {n}: {detail}"


def test_criterion_01_sho_eigenvalues():
    v = StaticPotential.harmonic(1.0)
    grid = Grid1D(-12.0, 12.0, 256)
    pairs = lowest_eigenpairs(v, grid, CONSTS, 3)
    rel_errors = [abs(p.energy - (n + 0.5)) / (n + 0.5) for n, p in enumerate(pairs)]
    # the sine DVR converges spectrally in n: from 32 to 40 points the E0
    # error falls by more than 1000 (a fourth-order operator would give
    # (39/31)^4 = 2.5), and by 48 points it is round-off
    e0_error = {n: abs(lowest_eigenpairs(v, Grid1D(-12.0, 12.0, n), CONSTS, 1)[0].energy - 0.5)
                for n in (32, 40, 48)}
    fall = e0_error[32] / e0_error[40]
    ok = max(rel_errors) < 5e-5 and fall > 1000.0 and e0_error[48] < 1e-13
    report(1, "SHO eigenvalues", ok,
           f"max relative error {max(rel_errors):.2e} (tol 5e-5), "
           f"E0 error falls {fall:.3g}x from 32 to 40 points (need > 1000x), "
           f"{e0_error[48]:.1e} at 48 (tol 1e-13)")


def test_criterion_02_constructor_exactness(sho_result):
    worst = 0.0
    # SHO family
    sol = sho_result.solution
    grid = sol.shape.field.grid
    v = StaticPotential.harmonic(1.0)
    peak = float(np.max(np.abs(analytic_psi(sol, grid, 0.0).values)))
    sho_res = max(tdse_residual(sol, v, grid, t) for t in (0.2, 1.5)) / peak
    corrupt_ratio = (tdse_residual(sol, v, grid, 1.0, drop_phi0=True)
                     / tdse_residual(sol, v, grid, 1.0))
    worst = max(worst, sho_res)
    # the Airy family, free and forced, on a window grid
    agrid = Grid1D(-15.0, 10.0, 4096)
    for asol in (airy_forced_case(1.0, consts=CONSTS).sol,
                 airy_forced_case(1.0, lambda t: 0.3 * np.sin(2 * t), CONSTS).sol):
        v_lin = StaticPotential.linear(asol.shape.A)
        apeak = float(np.max(np.abs(analytic_psi(asol, agrid, 0.0).values)))
        res = max(tdse_residual(asol, v_lin, agrid, t, margin=16 * agrid.dx,
                                dirichlet=False)
                  for t in (0.2, 1.5)) / apeak
        worst = max(worst, res)
    ok = worst < 1e-4 and corrupt_ratio >= 100.0
    report(2, "constructor TDSE residual", ok,
           f"worst relative residual {worst:.2e} (tol 1e-4), "
           f"corrupted-phase inflation {corrupt_ratio:.0f}x (need >= 100x)")


def test_criterion_03_sho_nonspreading(sho_result):
    shape = check_by_name(sho_result, "shape_deviation")
    centroid = check_by_name(sho_result, "centroid_tracks_trajectory")
    momentum = check_by_name(sho_result, "momentum_tracks_m_ddot")
    ok = (shape.value < 5e-4 and centroid.value < 1e-4 and momentum.value < 1e-4)
    report(3, "SHO nonspreading propagation", ok,
           f"shape {shape.value:.2e} (tol 5e-4), centroid {centroid.value:.2e} "
           f"(tol 1e-4), momentum {momentum.value:.2e} (tol 1e-4)")


def test_criterion_04_spreading_control(gaussian_result):
    width = check_by_name(gaussian_result, "width_follows_spreading_law")
    detected = check_by_name(gaussian_result, "spreading_detected")
    ok = width.value < 0.01 and detected.passed
    report(4, "Gaussian spreading control", ok,
           f"width-law deviation {width.value:.2e} (tol 1e-2), "
           f"spread deviation {detected.value:.2e} (must exceed 1e-2)")


def test_criterion_05_airy_acceleration(airy_free_result):
    peak = check_by_name(airy_free_result, "peak_follows_trajectory")
    density = check_by_name(airy_free_result, "windowed_density_mismatch")
    ok = peak.value < 0.02 and density.value < 1e-3
    report(5, "Airy free-space acceleration", ok,
           f"peak against d(t) {peak.value:.2e} (tol 2e-2), "
           f"windowed density mismatch {density.value:.2e} (tol 1e-3)")


def test_criterion_06_forced_airy_phase(airy_forced_result):
    dual = check_by_name(airy_forced_result, "phase_dual_route")
    ok = dual.value < 1e-8
    report(6, "forced-Airy phase cross-validation", ok,
           f"max |phi0_nested - phi0_direct| = {dual.value:.2e} (tol 1e-8)")


def _loglog_slope(sol, grid, t, drop):
    dts = np.array([1e-3, 5e-4, 2.5e-4])
    errs = np.array([
        infinitesimal_evolution_check(sol, grid, t, dt, drop_force_factor=drop)
        for dt in dts
    ])
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def test_criterion_07_decomposition(sho_result):
    sol = sho_result.solution
    grid = sol.shape.field.grid
    v = StaticPotential.harmonic(1.0)
    e0 = sho_result.extras["energy"]
    worst = max(
        htilde_residual(analytic_psi(sol, grid, t).values, grid, v, sol.trajectory,
                        CONSTS, e0, t)
        for t in np.linspace(0.0, 2.0 * math.pi, 9)
    )
    slope = _loglog_slope(sol, grid, 0.9, drop=False)
    slope_dropped = _loglog_slope(sol, grid, 0.9, drop=True)
    ok = (worst < 1e-4 and abs(slope - 2.0) < 0.3 and abs(slope_dropped - 1.0) < 0.3)
    report(7, "Hamiltonian decomposition", ok,
           f"max H-tilde residual {worst:.2e} (tol 1e-4), evolution order "
           f"{slope:.2f} (2.0 +/- 0.3), dropped-factor order {slope_dropped:.2f} "
           f"(~1)")


def test_criterion_08_energy_split(sho_result):
    value = check_by_name(sho_result, "energy_split_value")
    const = check_by_name(sho_result, "energy_constant_in_time")
    ok = value.value < 2e-4 and const.value < 2e-4
    report(8, "Senitzky energy split", ok,
           f"|<H> - (E_n + E_cl)| = {value.value:.2e}, time drift "
           f"{const.value:.2e} (both tol 2e-4)")


def test_criterion_09_negative_claim(timedep_result):
    check = check_by_name(timedep_result, "spread_detected_with_static_control")
    record = timedep_result.extras
    ok = check.passed and record["spread_detected"] and record["control_ok"]
    report(9, "no NSWP for modulated frequency", ok,
           f"modulated deviation {record['modulated_max_deviation']:.2e} (must exceed "
           f"1e-2), static control {record['control_max_deviation']:.2e} (tol 5e-4)")


def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code1 = cli_main(["reproduce", "--out", str(out1)])
    code2 = cli_main(["reproduce", "--out", str(out2)])
    reports = sorted(p.relative_to(out1) for p in out1.rglob("report.json"))
    identical = all(
        (out1 / rel).read_bytes() == (out2 / rel).read_bytes() for rel in reports
    )
    strict = all(_is_strict_json((out1 / rel).read_text()) for rel in reports)
    ok = code1 == 0 and code2 == 0 and len(reports) >= 4 and identical and strict
    report(10, "reproduce determinism", ok,
           f"{len(reports)} report.json files, bit-identical across two runs: "
           f"{identical}, strict JSON (no NaN): {strict}, exit codes ({code1}, {code2})")


def _is_strict_json(text):
    def reject(token):
        raise ValueError(token)
    try:
        json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    return True
