import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from nswp import (AbsorbingMask, Grid1D, PhysicalConstants,
                  PropagationConfig, StaticPotential, WaveField,
                  inner_product, lowest_eigenpairs, observables,
                  propagate, shift_field)
from nswp import propagator
from nswp.grids import MAX_DENSE_POINTS, write_json
from nswp.cases import _AIRY_MASK, run_airy_forced
from nswp.errors import BoundaryError, ConfigurationError, RangeError
from nswp.propagator import MAX_STEPS, guarded_dt

CONSTS = PhysicalConstants()


def gaussian(grid, center=0.0, k=0.0):
    psi = np.exp(-((grid.x - center) ** 2) / 2.0) * np.exp(1j * k * grid.x)
    psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=grid.dx))
    return WaveField(grid=grid, values=psi)


def one_step(psi, v, dt):
    """``psi`` after one Dirichlet step of ``dt`` under the static ``v``."""
    config = PropagationConfig(dt=dt, t_end=dt, grid=psi.grid)
    return propagate(psi, lambda x, t: v, config, CONSTS).snapshots[-1]


def test_single_step_unitarity():
    grid = Grid1D(-10.0, 10.0, 512)
    psi = gaussian(grid)
    out = one_step(psi, np.zeros(grid.n), 1e-3)
    assert abs(observables(out).norm - observables(psi).norm) < 1e-12
    assert out.time == pytest.approx(1e-3)


def test_step_guard():
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid)
    with pytest.raises(ConfigurationError):
        one_step(psi, np.full(grid.n, 100.0), 1e-2)


def test_non_finite_potential_rejected():
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid)
    v = np.zeros(grid.n)
    v[5] = np.nan
    with pytest.raises(ConfigurationError):
        one_step(psi, v, 1e-3)


def test_dense_basis_cap_raises_before_the_run():
    # a Dirichlet grid past the cap is refused by the config, naming n;
    # a masked run of the same size takes no dense matrix and is allowed
    grid = Grid1D(-10.0, 10.0, MAX_DENSE_POINTS + 1)
    with pytest.raises(RangeError, match=f"n = {MAX_DENSE_POINTS + 1} points"):
        PropagationConfig(dt=1e-3, t_end=1.0, grid=grid)
    PropagationConfig(dt=1e-3, t_end=1.0, grid=grid,
                      mask=AbsorbingMask(width=2.0, strength=1.0))


def test_config_validation():
    grid = Grid1D(-10.0, 10.0, 128)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=-1e-3, t_end=1.0, grid=grid)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=1e-3, t_end=0.0, grid=grid)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=1e-3, t_end=1.0, grid=grid, snapshot_stride=0)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=1e-3, t_end=1.0, grid=grid,
                          mask=AbsorbingMask(width=15.0, strength=10.0))


def test_config_rejects_partial_last_step():
    # 1.0 / 0.3 steps used to round to 3 and stop at t = 0.9 without a word
    grid = Grid1D(-10.0, 10.0, 128)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=0.3, t_end=1.0, grid=grid)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=0.3, t_end=1.0, grid=grid, t_start=0.05)
    config = PropagationConfig(dt=0.25, t_end=1.0, grid=grid)
    assert config.n_steps == 4
    # an exact multiple up to round-off is accepted
    config = PropagationConfig(dt=2.0 * np.pi / 20000.0, t_end=2.0 * np.pi,
                               grid=grid)
    assert config.n_steps == 20000


def test_run_ends_at_t_end():
    grid = Grid1D(-10.0, 10.0, 256)
    config = PropagationConfig(dt=0.01, t_end=0.3, grid=grid,
                               snapshot_stride=7)
    report = propagate(gaussian(grid), lambda x, t: np.zeros_like(x), config,
                       CONSTS)
    assert report.times[-1] == pytest.approx(0.3, abs=1e-12)
    assert report.snapshots[-1].time == pytest.approx(0.3, abs=1e-12)


def test_stationary_state_evolution():
    # ground state under static SHO for T = 1: unit overlap, phase -E0 T
    grid = Grid1D(-12.0, 12.0, 256)
    v = StaticPotential.harmonic(1.0)
    pair = lowest_eigenpairs(v, grid, CONSTS, 1)[0]
    v_samples = np.asarray(v(grid.x))
    config = PropagationConfig(dt=1e-3, t_end=1.0, grid=grid, snapshot_stride=1000)
    report = propagate(pair.shape, lambda x, t: v_samples, config, CONSTS)
    final = report.snapshots[-1]
    ovl = inner_product(pair.shape, final)
    assert abs(abs(ovl) - 1.0) < 1e-6
    phase_err = np.angle(ovl * np.exp(1j * pair.energy * 1.0))
    assert abs(phase_err) < 1e-4
    # cumulative norm drift stays tiny between walls
    assert max(abs(n - report.norm[0]) for n in report.norm) < 1e-8
    # stationary state: centroid constant
    assert max(abs(c - report.centroid[0]) for c in report.centroid) < 1e-8


def exact_evolution(initial, v_samples, t):
    """exp(-i t (T + V) / hbar) psi from the eigenpairs of T + V, with T
    built test-side as S diag(hbar^2 k^2 / 2m) S, S the orthonormal DST-I
    matrix and k_j = pi j / ((n + 1) dx)."""
    grid = initial.grid
    n = grid.n
    j = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    k = np.pi * j / ((n + 1) * grid.dx)
    h = (s * (CONSTS.hbar**2 * k**2 / (2.0 * CONSTS.mass))) @ s + np.diag(v_samples)
    e, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * e * t / CONSTS.hbar) * (u.T @ initial.values))


def test_fourth_order_in_dt():
    # a static V: the error must fall at least as fast as dt^4, as the Pade
    # step's did (about 1.3e-8 at t_end / 40 and 8e-10 at t_end / 80). The
    # eigenbasis step has no time error at all: at every step the guard
    # allows (dt max|V| is 0.4 at 40 steps) the run is the exact evolution
    # of T + V, up to round-off that grows with the step count
    grid = Grid1D(-8.0, 8.0, 128)
    v_samples = 0.5 * grid.x**2
    initial = gaussian(grid, center=1.0, k=0.5)
    t_end = 0.5
    exact = exact_evolution(initial, v_samples, t_end)
    for n_steps in (40, 57, 80, 1280):
        config = PropagationConfig(dt=t_end / n_steps, t_end=t_end, grid=grid,
                                   snapshot_stride=10**9)
        final = propagate(initial, lambda x, t: v_samples, config, CONSTS).snapshots[-1]
        assert final.time == pytest.approx(t_end, abs=1e-12)
        assert np.max(np.abs(final.values - exact)) < 1e-13 * n_steps + 1e-12


def test_time_reversal():
    grid = Grid1D(-10.0, 10.0, 256)
    v = 0.5 * grid.x**2
    psi = gaussian(grid, center=0.7)
    fwd = propagator._eigen_step(v, 1e-3, grid, CONSTS)
    back = propagator._eigen_step(v, -1e-3, grid, CONSTS)
    assert np.max(np.abs(back @ (fwd @ psi.values) - psi.values)) < 1e-12


def test_boundary_hit_raises():
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian(grid, center=0.0, k=6.0)
    config = PropagationConfig(dt=1e-3, t_end=4.0, grid=grid, snapshot_stride=50)
    with pytest.raises(BoundaryError) as exc_info:
        propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)
    partial = exc_info.value.partial_report
    assert partial is not None
    assert len(partial.times) > 0


def test_absorbing_mask_run():
    # same fast packet, masked boundaries: absorbs without raising
    grid = Grid1D(-8.0, 8.0, 512)
    psi = gaussian(grid, center=0.0, k=6.0)
    config = PropagationConfig(dt=1e-3, t_end=2.0, grid=grid,
                               snapshot_stride=500,
                               mask=AbsorbingMask(width=2.0, strength=40.0))
    report = propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)
    assert report.norm[-1] < 0.1 * report.norm[0]
    # a masked run records the norm only
    assert set(report.to_dict()) == {"times", "norm"}


def test_grid_mismatch_rejected():
    grid = Grid1D(-8.0, 8.0, 512)
    psi = gaussian(Grid1D(-8.0, 8.0, 256))
    config = PropagationConfig(dt=1e-3, t_end=1.0, grid=grid)
    with pytest.raises(ConfigurationError):
        propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)


def test_report_shape_and_json(tmp_path):
    grid = Grid1D(-10.0, 10.0, 256)
    psi = gaussian(grid)
    config = PropagationConfig(dt=1e-3, t_end=0.05, grid=grid, snapshot_stride=10)
    report = propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)
    n = len(report.times)
    assert n == len(report.norm) == len(report.centroid)
    assert n == len(report.momentum_mean) == len(report.energy_mean)
    # the verifier measures shape deviation and the H-tilde residual from
    # the snapshots; a bare run records neither column, nor writes it
    assert report.shape_deviation == [] and report.htilde_residual == []
    assert n == len(report.snapshots)
    path = tmp_path / "report.json"
    write_json(path, report.to_dict())
    text = path.read_text()
    assert '"times"' in text and '"norm"' in text
    assert '"shape_deviation"' not in text and '"htilde_residual"' not in text


def test_initial_time_must_be_the_start_time():
    # a field at t = 1 run from t_start = 0 would be stepped under V(x, 0)
    grid = Grid1D(-10.0, 10.0, 128)
    psi = WaveField(grid=grid, values=gaussian(grid).values, time=1.0)
    config = PropagationConfig(dt=1e-2, t_end=0.1, grid=grid)
    with pytest.raises(ConfigurationError, match="t_start"):
        propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)


# --- both steppers against test-side references -----------------------------

def reference_run(initial, v_fn, config, step=None):
    """The exact evolution of T + V_ref, V_ref = V(t_start + dt/2), between two
    half kicks exp(-i (V - V_ref) dt / 2 hbar), V taken at each step's
    midpoint. The fixed part is ``exact_evolution``, or the matrix ``step``
    when one is given."""
    x, dt = config.grid.x, config.dt
    values = initial.values.copy()
    t = config.t_start
    v_ref = np.array(v_fn(x, t + 0.5 * dt), dtype=float)
    for i in range(config.n_steps):
        angle = (-0.5 * dt / CONSTS.hbar) * (v_fn(x, t + 0.5 * dt) - v_ref)
        kick = np.cos(angle) + 1j * np.sin(angle)
        if step is None:
            moved = WaveField(grid=config.grid, values=kick * values)
            values = kick * exact_evolution(moved, v_ref, dt)
        else:
            values = kick * (step @ (kick * values))
        t = config.t_start + (i + 1) * dt
    return values


def reference_step(values, v_mid, dt, dx):
    """Numerov (2,2) Pade step, the Crank-Nicolson form of fourth order in
    dt and dx, as its two stages, one per root r of 1 + z/2 + z^2/12:
    (M - i c S) psi' = (M + i c S) psi with c = dt / (hbar r) and
    S = K + M V, each solved by scipy's generic banded solver."""
    kin = CONSTS.hbar**2 / (CONSTS.mass * dx**2)
    s_diag = kin + 10.0 / 12.0 * v_mid
    s_off = 1.0 / 12.0 * v_mid - 0.5 * kin
    for r in (complex(-3.0, np.sqrt(3.0)), complex(-3.0, -np.sqrt(3.0))):
        ic = 1j * dt / (CONSTS.hbar * r)
        w = (1.0 / 12.0 + ic * s_off) * values
        rhs = (10.0 / 12.0 + ic * s_diag) * values
        rhs[:-1] += w[1:]
        rhs[1:] += w[:-1]
        a_off = 1.0 / 12.0 - ic * s_off
        ab = np.zeros((3, len(values)), dtype=complex)
        ab[0, 1:] = a_off[1:]
        ab[1, :] = 10.0 / 12.0 - ic * s_diag
        ab[2, :-1] = a_off[:-1]
        values = solve_banded((1, 1), ab, rhs)
    return values


def final_values(initial, v_fn, config):
    report = propagate(initial, v_fn, config, CONSTS)
    return report.snapshots[-1].values


def test_static_v_matches_the_dense_reference():
    grid = Grid1D(-8.0, 8.0, 128)
    v_samples = 0.5 * grid.x**2
    config = PropagationConfig(dt=1e-2, t_end=0.2, grid=grid,
                               snapshot_stride=5)
    initial = gaussian(grid, center=1.0)
    v_fn = lambda x, t: v_samples
    assert np.max(np.abs(final_values(initial, v_fn, config)
                         - reference_run(initial, v_fn, config))) < 1e-12


def test_time_dependent_v_matches_the_dense_reference():
    grid = Grid1D(-8.0, 8.0, 128)
    config = PropagationConfig(dt=1e-2, t_end=0.2, grid=grid,
                               snapshot_stride=5)
    initial = gaussian(grid, center=1.0)

    def v_fn(x, t):
        return 0.5 * (1.0 + 0.2 * np.sin(t)) ** 2 * x**2

    assert np.max(np.abs(final_values(initial, v_fn, config)
                         - reference_run(initial, v_fn, config))) < 1e-12


# The two tests below held the loop to a reference built on scipy's banded
# solver. The fixed part is now one dense matrix, checked against the
# independent ``exact_evolution`` above; with that same matrix as its fixed
# part the reference holds the loop (V_ref, the midpoint kicks and their
# order) to propagate's result bit for bit.

def test_static_v_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 128)
    v_samples = 0.5 * grid.x**2
    config = PropagationConfig(dt=1e-2, t_end=0.2, grid=grid,
                               snapshot_stride=5)
    initial = gaussian(grid, center=1.0)
    v_fn = lambda x, t: v_samples
    step = propagator._eigen_step(v_samples, config.dt, grid, CONSTS)
    assert np.array_equal(final_values(initial, v_fn, config),
                          reference_run(initial, v_fn, config, step))


def test_time_dependent_v_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 128)
    config = PropagationConfig(dt=1e-2, t_end=0.2, grid=grid,
                               snapshot_stride=5)
    initial = gaussian(grid, center=1.0)

    def v_fn(x, t):
        return 0.5 * (1.0 + 0.2 * np.sin(t)) ** 2 * x**2

    step = propagator._eigen_step(v_fn(grid.x, 0.5 * config.dt), config.dt, grid, CONSTS)
    assert np.array_equal(final_values(initial, v_fn, config),
                          reference_run(initial, v_fn, config, step))


def reference_split_run(initial, v_fn, config):
    """Strang split-step Fourier plus mask, written out with numpy: half kick
    at the midpoint time, exact kinetic phase, half kick, mask."""
    grid, dt = config.grid, config.dt
    x = grid.x
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    kinetic = np.exp(-0.5j * CONSTS.hbar * dt / CONSTS.mass * k**2)
    mask = propagator._mask_profile(grid, config.mask, dt)
    values = initial.values.copy()
    t = config.t_start
    for i in range(config.n_steps):
        angle = (-0.5 * dt / CONSTS.hbar) * v_fn(x, t + 0.5 * dt)
        kick = np.cos(angle) + 1j * np.sin(angle)
        values = kick * np.fft.ifft(kinetic * np.fft.fft(kick * values)) * mask
        t = config.t_start + (i + 1) * dt
    return values


def test_masked_run_bit_identical_to_split_step_reference():
    grid = Grid1D(-8.0, 8.0, 512)
    mask = AbsorbingMask(width=2.0, strength=40.0)
    config = PropagationConfig(dt=1e-3, t_end=0.5, grid=grid,
                               snapshot_stride=100, mask=mask)
    initial = gaussian(grid, center=0.0, k=6.0)

    def v_fn(x, t):
        return -0.3 * np.sin(2.0 * t) * x

    assert np.array_equal(final_values(initial, v_fn, config),
                          reference_split_run(initial, v_fn, config))


def test_split_step_agrees_with_crank_nicolson_on_forced_airy():
    # the masked Airy run against the test-side Pade step plus the same mask
    # at half its step, from the same tapered packet
    F = lambda t: 0.3 * np.sin(2.0 * t)
    result = run_airy_forced(F, force_label="sin", t_end=1.0)
    start, final = result.report.snapshots[0], result.report.snapshots[-1]
    grid, dt = start.grid, 2e-3
    mask = propagator._mask_profile(grid, _AIRY_MASK, dt)
    values = start.values.copy()
    n_steps = int(round(1.0 / dt))
    for i in range(n_steps):
        values = reference_step(values, -F((i + 0.5) * dt) * grid.x, dt, grid.dx) * mask
    assert final.time == pytest.approx(n_steps * dt, abs=1e-12)
    window = result.extras["window"]
    sel = (grid.x >= window[0]) & (grid.x <= window[1])
    rho_cn = np.abs(values[sel]) ** 2
    assert np.max(np.abs(final.density()[sel] - rho_cn)) / np.max(rho_cn) < 1e-4


def test_weak_mask_wraps_around_and_raises():
    # the packet of test_absorbing_mask_run under a tenth of the mask
    # strength reaches the far edge of the periodic domain
    grid = Grid1D(-8.0, 8.0, 512)
    psi = gaussian(grid, center=0.0, k=6.0)
    config = PropagationConfig(dt=1e-3, t_end=2.0, grid=grid,
                               snapshot_stride=500,
                               mask=AbsorbingMask(width=2.0, strength=4.0))
    with pytest.raises(BoundaryError, match="wrapped around") as exc_info:
        propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)
    assert exc_info.value.partial_report.times[-1] == pytest.approx(1.0)


def test_config_rejects_negative_mask():
    grid = Grid1D(-10.0, 10.0, 128)
    with pytest.raises(ConfigurationError):
        PropagationConfig(dt=1e-3, t_end=1.0, grid=grid,
                          mask=AbsorbingMask(width=2.0, strength=-1.0))


def test_split_step_guard():
    grid = Grid1D(-10.0, 10.0, 128)
    mask = AbsorbingMask(width=2.0, strength=1.0)

    def run(v, dt):
        config = PropagationConfig(dt=dt, t_end=dt, grid=grid, mask=mask)
        propagate(gaussian(grid), lambda x, t: v, config, CONSTS)

    with pytest.raises(ConfigurationError):
        run(np.full(grid.n, 100.0), 1e-2)
    v = np.zeros(grid.n)
    v[5] = np.nan
    with pytest.raises(ConfigurationError):
        run(v, 1e-3)


def test_reversed_step_bit_identical_to_banded_reference():
    # the reference was the banded Pade solve at -dt; H is real symmetric,
    # so the step back is, bit for bit, the complex conjugate of the step
    # forward, and one step of propagate is that matrix's product
    grid = Grid1D(-10.0, 10.0, 256)
    v = 0.5 * grid.x**2
    psi = gaussian(grid, center=0.7)
    fwd = propagator._eigen_step(v, 1e-3, grid, CONSTS)
    back = propagator._eigen_step(v, -1e-3, grid, CONSTS)
    assert np.array_equal(back, np.conj(fwd))
    out = one_step(psi, v, 1e-3)
    assert np.array_equal(out.values, fwd @ psi.values)
    assert out.time == pytest.approx(1e-3, abs=1e-15)


def test_factor_once_per_distinct_v(monkeypatch):
    # one factorization per run: a static V, a time-dependent V, and a v_fn
    # that refills and returns one buffer
    calls = []
    factor = propagator._eigen_step

    def counting_factor(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(propagator, "_eigen_step", counting_factor)
    grid = Grid1D(-8.0, 8.0, 256)
    config = PropagationConfig(dt=1e-3, t_end=0.05, grid=grid,
                               snapshot_stride=10)
    initial = gaussian(grid, center=1.0)

    def v_fn(x, t):
        return (1.0 + 10.0 * t) * 0.5 * x**2

    v_samples = v_fn(grid.x, 0.5 * config.dt)
    static = final_values(initial, lambda x, t: v_samples, config)
    assert len(calls) == 1

    calls.clear()
    moving = final_values(initial, v_fn, config)
    assert len(calls) == 1

    buf = np.empty(grid.n)

    def in_place(x, t):
        buf[:] = v_fn(x, t)
        return buf

    calls.clear()
    refilled = final_values(initial, in_place, config)
    assert len(calls) == 1
    # V_ref is a copy, so the buffer's later contents act as kicks; without
    # it the run would stay at V_ref, the static run
    assert np.array_equal(refilled, moving)
    assert np.max(np.abs(refilled - static)) > 1e-4


def test_step_guard_rechecked_for_time_dependent_v():
    # dt * V(t_mid) / hbar = 1e-3 * 1e5 * t_mid first reaches 0.5 at step 5
    grid = Grid1D(-10.0, 10.0, 128)
    config = PropagationConfig(dt=1e-3, t_end=0.02, grid=grid,
                               snapshot_stride=1)
    requested = []

    def v_fn(x, t):
        requested.append(t)
        return np.full_like(x, 1e5 * t)

    with pytest.raises(ConfigurationError):
        propagate(gaussian(grid), v_fn, config, CONSTS)
    assert requested[-1] == pytest.approx(5.5e-3)


def test_guarded_dt_cuts_to_the_step_guard_within_the_step_budget():
    consts = PhysicalConstants()
    # dt max|V| / hbar = 0.4 < 0.5: no cut; 1.2: cut by 3 to 0.4
    assert guarded_dt(0.01, 40.0, 1.0, consts) == 0.01
    assert guarded_dt(0.01, 120.0, 1.0, consts) == 0.01 / 3
    # the same cut over a run of 1e6 / 3 * 0.01 is exactly at the budget
    assert guarded_dt(0.01, 120.0, MAX_STEPS / 3 * 0.01, consts) == 0.01 / 3
    with pytest.raises(RangeError, match="hbar = 1e-30 and mass = 1"):
        guarded_dt(0.01, 40.0, 1.0, PhysicalConstants(hbar=1e-30))
    # an overflowing ratio, or a NaN, fails the budget instead of raising
    # OverflowError or ValueError in a floor
    for v_max in (1e308, math.nan):
        with pytest.raises(RangeError):
            guarded_dt(0.01, v_max, 1.0, PhysicalConstants(hbar=1e-10))
