import math

import numpy as np
import pytest

from nswp import (AiryShape, GaugeFunction, Grid1D, NswpSolution,
                  PhysicalConstants, Polynomial, SampledShape, Sinusoid,
                  StaticPotential, analytic_psi,
                  gauge_linear_case, gauge_sho_case, lowest_eigenpairs, phase,
                  integrate_time, tdse_residual, v_nswp)
from nswp.cases import _AIRY_GRID, airy_forced_case, sho_case
from nswp.errors import RangeError

CONSTS = PhysicalConstants()


@pytest.fixture(scope="module")
def sho_pieces():
    grid = Grid1D(-8.0, 8.0, 256)
    v = StaticPotential.harmonic(1.0)
    pair = lowest_eigenpairs(v, grid, CONSTS, 1)[0]
    traj = Sinusoid(amplitude=2.0, omega=1.0)
    sol = NswpSolution(SampledShape.from_eigenpair(pair), traj,
                       gauge_sho_case(1.0, traj, CONSTS), consts=CONSTS)
    return sol, v, grid, pair


def airy_free_pieces(B=1.0):
    A = B**3 / 2.0
    shape = AiryShape(A=A, energy=0.0, consts=CONSTS)
    # d = A t^2 / 2m, the uniform acceleration of the free packet (m = 1)
    traj = Polynomial((0.0, 0.0, 0.5 * A))
    sol = NswpSolution(shape, traj, gauge_linear_case(A, traj), consts=CONSTS)
    return sol, StaticPotential.linear(A)


def test_vnswp_rest_reduces_to_static(sho_pieces):
    _, v, grid, pair = sho_pieces
    sol = NswpSolution(SampledShape.from_eigenpair(pair), Polynomial((0.0,)),
                       GaugeFunction.zero(), consts=CONSTS)
    for t in (0.0, 1.3, 7.7):
        assert np.max(np.abs(v_nswp(sol, v, grid.x, t) - v(grid.x))) == 0.0


def test_vnswp_free_airy_vanishes():
    sol, v_lin = airy_free_pieces()
    x = np.linspace(-20.0, 10.0, 401)
    for t in (0.0, 0.8, 2.0):
        assert np.max(np.abs(v_nswp(sol, v_lin, x, t))) < 1e-12


def test_vnswp_sho_is_static(sho_pieces):
    sol, v, grid, _ = sho_pieces
    for t in (0.0, 0.9, 4.2):
        dev = np.max(np.abs(v_nswp(sol, v, grid.x, t) - v(grid.x)))
        assert dev < 1e-10


def test_phase_rest_stationary(sho_pieces):
    _, _, _, pair = sho_pieces
    sol = NswpSolution(SampledShape.from_eigenpair(pair), Polynomial((0.0,)),
                       GaugeFunction.zero(), consts=CONSTS)
    for t in (0.5, 2.0):
        assert phase(sol, 0.0, t) == pytest.approx(-pair.energy * t, abs=1e-10)


def test_phi0_sho_closed_form(sho_pieces):
    # phi0 = -(m omega A^2 / 4) sin(2 omega t) - E_n t  (hbar = 1)
    sol, _, _, pair = sho_pieces
    A, omega = 2.0, 1.0
    for t in np.linspace(0.0, 6.0, 13):
        closed = -(A**2 * omega / 4.0) * math.sin(2 * omega * t) - pair.energy * t
        assert abs(sol.phi0(t) - closed) < 1e-9


def test_phi0_free_airy_closed_form():
    # phi0 = -(E_f t + A^2 t^3 / 3)  (hbar = m = 1)
    sol, _ = airy_free_pieces()
    A = sol.shape.A
    for t in np.linspace(0.0, 3.0, 7):
        assert abs(sol.phi0(t) + (sol.E_f * t + A**2 * t**3 / 3.0)) < 1e-9


def test_phi0_cache_matches_direct_quadrature(sho_pieces):
    sol = sho_pieces[0]
    for t in (0.3, 1.7, 5.1):
        assert abs(sol.phi0(t) - sol.phi0_direct(t)) < 1e-9


def test_phi0_direct_scalar_is_one_adaptive_integral(sho_pieces):
    # bit-identical to one integrate_time over [0, t]
    sol = sho_pieces[0]
    for t in (0.3, 1.7, 5.1):
        value = sol.phi0_direct(t)
        assert isinstance(value, float)
        assert value == -integrate_time(sol._phi0_integrand, 0.0, t, 1e-12) / CONSTS.hbar


def test_phi0_direct_range_error(sho_pieces):
    sol = sho_pieces[0]
    for bad in (-0.1, sol.t_max + 0.5):
        with pytest.raises(RangeError):
            sol.phi0_direct(bad)


def test_phi0_range_error(sho_pieces):
    sol = sho_pieces[0]
    with pytest.raises(RangeError):
        sol.phi0(sol.t_max + 1.0)


def test_phi0_takes_an_array_and_checks_every_time(sho_pieces):
    sol = sho_pieces[0]
    ts = np.array([0.0, 0.3, 1.7, 5.1, sol.t_max])
    assert np.array_equal(sol.phi0(ts), [sol.phi0(t) for t in ts.tolist()])
    for bad in (np.array([1.0, sol.t_max + 1.0]), np.array([-1.0, 1.0]), np.array([np.nan])):
        with pytest.raises(RangeError):
            sol.phi0(bad)


def test_phi0_range_error_names_the_first_bad_time(sho_pieces):
    # one line, not the whole array of 201 times
    sol = sho_pieces[0]
    for bad in (sol.t_max + 1.25, np.nan):
        ts = np.linspace(0.0, sol.t_max, 201)
        ts[137] = bad
        with pytest.raises(RangeError) as exc_info:
            sol.phi0(ts)
        message = str(exc_info.value)
        assert f"t={bad} " in message and f"[0, {sol.t_max}]" in message
        assert len(message) < 80


def test_phi0_refuses_a_negative_time(sho_pieces):
    # below 0 the cache would extrapolate its first piece
    sol = sho_pieces[0]
    assert abs(sol.phi0(-1e-10)) < 1e-9
    with pytest.raises(RangeError):
        sol.phi0(-1.0)


def test_phase_affine_in_x(sho_pieces):
    sol = sho_pieces[0]
    t = 1.1
    x1, x2 = -2.3, 4.1
    lhs = phase(sol, x2, t) - phase(sol, x1, t)
    assert lhs == pytest.approx(sol.phi1(t) * (x2 - x1), abs=1e-12)


def test_analytic_psi_initial_time(sho_pieces):
    sol, _, grid, pair = sho_pieces
    psi = analytic_psi(sol, grid, 0.0)
    expected = pair.shape.values.real * np.exp(1j * sol.phi1(0.0) * grid.x)
    assert np.max(np.abs(psi.values - expected)) < 1e-14


def test_density_is_pure_translation(sho_pieces):
    sol, _, grid, _ = sho_pieces
    for t in (0.4, 2.2):
        rho = np.abs(analytic_psi(sol, grid, t).values) ** 2
        f = sol.shape.on_grid_shifted(grid, sol.trajectory.d(t))
        assert np.max(np.abs(rho - f**2)) < 1e-12
    # an array of shifts gives the one-shift samples as its rows, bit for
    # bit; the zero shift is the mode itself
    times = np.array([0.0, 0.4, 2.2])
    rows = sol.shape.on_grid_shifted(grid, sol.trajectory.d(times))
    assert rows.shape == (3, grid.n)
    assert np.array_equal(rows[0], sol.shape.field.values.real)
    for row, t in zip(rows, times):
        assert np.array_equal(row, sol.shape.on_grid_shifted(grid, sol.trajectory.d(t)))


def test_gauge_change_is_global_phase(sho_pieces):
    sol, _, grid, pair = sho_pieces
    traj = sol.trajectory
    shifted_gauge = GaugeFunction("custom", lambda t: sol.gauge(t) + 0.25)
    sol2 = NswpSolution(SampledShape.from_eigenpair(pair), traj, shifted_gauge,
                        consts=CONSTS)
    t = 1.4
    a = analytic_psi(sol, grid, t).values
    b = analytic_psi(sol2, grid, t).values
    assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-13
    core = np.abs(a) > 1e-6 * np.max(np.abs(a))
    ratio = b[core] / a[core]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-7
    # raising G by 0.25 lowers phi0 by 0.25 t
    assert ratio[0] == pytest.approx(np.exp(-1j * 0.25 * t), abs=1e-7)


def test_tdse_residual_sho(sho_pieces):
    sol, v, grid, _ = sho_pieces
    peak = float(np.max(np.abs(analytic_psi(sol, grid, 0.0).values)))
    for t in (0.1, 1.9):
        assert tdse_residual(sol, v, grid, t) < 1e-5 * peak


def test_tdse_residual_free_airy():
    sol, v_lin = airy_free_pieces()
    grid = Grid1D(-15.0, 10.0, 4096)
    peak = float(np.max(np.abs(analytic_psi(sol, grid, 0.0).values)))
    for t in (0.1, 1.0):
        assert tdse_residual(sol, v_lin, grid, t, margin=16 * grid.dx,
                             dirichlet=False) < 1e-4 * peak


def test_tdse_residual_detects_corrupted_phase(sho_pieces):
    sol, v, grid, _ = sho_pieces
    t = 1.0
    peak = float(np.max(np.abs(analytic_psi(sol, grid, t).values)))
    good = tdse_residual(sol, v, grid, t)
    bad = tdse_residual(sol, v, grid, t, drop_phi0=True)
    assert bad > 1e-2 * peak
    assert bad > 100.0 * good


def test_sampled_shape_guards(sho_pieces):
    sol, _, grid, _ = sho_pieces
    other = Grid1D(-8.0, 8.0, 2048)
    with pytest.raises(RangeError):
        sol.shape.on_grid_shifted(other, 0.5)
    with pytest.raises(RangeError):
        sol.shape.on_grid_shifted(grid, 0.6 * grid.width)


def test_sampled_shape_refuses_a_nan_shift(sho_pieces):
    sol, _, grid, _ = sho_pieces
    shifts = np.linspace(-1.0, 1.0, 5)
    shifts[3] = np.nan
    for d in (np.nan, shifts):
        with pytest.raises(RangeError) as exc_info:
            sol.shape.on_grid_shifted(grid, d)
        assert str(exc_info.value).startswith("shift nan ")


@pytest.mark.parametrize("family", ["airy", "sho"])
def test_on_grid_shifted_at_sel_is_the_whole_grid_rows_at_sel(family):
    # the Airy packet's comparison window, and a stretch of a sampled sho mode
    if family == "airy":
        case = airy_forced_case()
        grid = _AIRY_GRID
        sel = case.reference(grid)[1]
    else:
        case = sho_case(n=1)
        grid, sel = case.sol.shape.field.grid, slice(17, 90)
    shape = case.sol.shape
    assert 0 < sel.start and sel.stop < grid.n
    for d in (0.7, case.sol.trajectory.d(np.linspace(0.0, 2.0, 7))):
        whole = shape.on_grid_shifted(grid, d)
        assert np.array_equal(shape.on_grid_shifted(grid, d, sel), whole[..., sel])
        assert whole.shape == np.shape(d) + (grid.n,)


def test_sampled_shape_range_error_names_the_first_bad_shift(sho_pieces):
    sol, _, grid, _ = sho_pieces
    shifts = np.linspace(-1.0, 1.0, 301)
    shifts[[40, 200]] = 0.6 * grid.width, -0.7 * grid.width
    with pytest.raises(RangeError) as exc_info:
        sol.shape.on_grid_shifted(grid, shifts)
    message = str(exc_info.value)
    assert f"shift {0.6 * grid.width} " in message and len(message) < 80


def test_sampled_shift_does_not_wrap_around():
    # on +-8 at d = 2 the spectral shift's periodic image of the right tail
    # (about 1.5e-8 of the peak) would sit left of x_min + d; there f = 0,
    # as beyond the wall. The construction residual at 512 points then reads
    # 5.1e-8, the floor of the tail the walls cut off; with the image it
    # read 1.5e-7
    v = StaticPotential.harmonic(1.0)
    traj = Sinusoid(amplitude=2.0, omega=1.0)
    grid = Grid1D(-8.0, 8.0, 512)
    pair = lowest_eigenpairs(v, grid, CONSTS, 1)[0]
    sol = NswpSolution(SampledShape.from_eigenpair(pair), traj,
                       gauge_sho_case(1.0, traj, CONSTS), consts=CONSTS)
    shifted = sol.shape.on_grid_shifted(grid, 2.0)
    off = grid.x - 2.0 < grid.x_min
    assert off.sum() > 0 and not np.any(shifted[off])
    peak = np.max(np.abs(pair.shape.values))
    residual = max(tdse_residual(sol, v, grid, t) for t in (0.3, 1.1, 1.9)) / peak
    assert residual < 1e-7
