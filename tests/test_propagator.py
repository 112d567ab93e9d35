import numpy as np
import pytest
from scipy.linalg import solve_banded

from nswp import (AbsorbingMask, Dirichlet, Grid1D, PhysicalConstants,
                  PropagationConfig, StaticPotential, WaveField,
                  crank_nicolson_step, inner_product, lowest_eigenpairs, norm,
                  propagate, shift_field)
from nswp import propagator
from nswp.errors import BoundaryError, ConfigurationError

CONSTS = PhysicalConstants()


def gaussian(grid, center=0.0, k=0.0):
    psi = np.exp(-((grid.x - center) ** 2) / 2.0) * np.exp(1j * k * grid.x)
    psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=grid.dx))
    return WaveField(grid=grid, values=psi)


def test_single_step_unitarity():
    grid = Grid1D(-10.0, 10.0, 512)
    psi = gaussian(grid)
    out = crank_nicolson_step(psi, np.zeros(grid.n), 1e-3, CONSTS)
    assert abs(norm(out) - norm(psi)) < 1e-12
    assert out.time == pytest.approx(1e-3)


def test_step_guard():
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid)
    with pytest.raises(ConfigurationError):
        crank_nicolson_step(psi, np.full(grid.n, 100.0), 1e-2, CONSTS)


def test_non_finite_potential_rejected():
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid)
    v = np.zeros(grid.n)
    v[5] = np.nan
    with pytest.raises(ConfigurationError):
        crank_nicolson_step(psi, v, 1e-3, CONSTS)


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
                          boundary=AbsorbingMask(width=15.0, strength=10.0))


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
                       CONSTS, compute_observables=False)
    assert report.times[-1] == pytest.approx(0.3, abs=1e-12)
    assert report.snapshots[-1].time == pytest.approx(0.3, abs=1e-12)


def test_stationary_state_evolution():
    # ground state under static SHO for T = 1: unit overlap, phase -E0 T
    grid = Grid1D(-12.0, 12.0, 2048)
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
    # cumulative norm drift stays tiny under Dirichlet
    assert max(abs(n - report.norm[0]) for n in report.norm) < 1e-8
    # stationary state: centroid constant
    assert max(abs(c - report.centroid[0]) for c in report.centroid) < 1e-8


def test_second_order_in_dt():
    # compare against a fine-dt run on the same grid so the error is
    # purely temporal; halving dt must cut it by ~4
    grid = Grid1D(-8.0, 8.0, 512)
    v = StaticPotential.harmonic(1.0)
    v_samples = np.asarray(v(grid.x))
    initial = gaussian(grid, center=1.0)
    t_end = 0.5

    def run(dt):
        config = PropagationConfig(dt=dt, t_end=t_end, grid=grid,
                                   snapshot_stride=10**9)
        report = propagate(initial, lambda x, t: v_samples, config, CONSTS,
                           compute_observables=False)
        return report.snapshots[-1].values

    ref = run(6.25e-5)
    err1 = np.linalg.norm(run(1e-3) - ref)
    err2 = np.linalg.norm(run(5e-4) - ref)
    ratio = err1 / err2
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_time_reversal():
    grid = Grid1D(-10.0, 10.0, 512)
    v = 0.5 * grid.x**2
    psi = gaussian(grid, center=0.7)
    fwd = crank_nicolson_step(psi, v, 1e-3, CONSTS)
    back = crank_nicolson_step(fwd, v, -1e-3, CONSTS)
    assert np.max(np.abs(back.values - psi.values)) < 1e-10


def test_boundary_hit_raises():
    grid = Grid1D(-8.0, 8.0, 512)
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
                               boundary=AbsorbingMask(width=2.0, strength=40.0))
    report = propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS,
                       compute_observables=False)
    assert report.norm[-1] < 0.1 * report.norm[0]


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
    assert n == len(report.shape_deviation) == len(report.htilde_residual)
    path = tmp_path / "report.json"
    report.write_json(path)
    text = path.read_text()
    assert '"times"' in text and '"norm"' in text


# --- factored stepper against a banded-solver reference ---------------------

def reference_step(values, v_mid, dt, dx):
    """CN step solved by scipy's generic banded solver, matrix rebuilt."""
    kin = CONSTS.hbar**2 / (CONSTS.mass * dx**2)
    lam = 1j * dt / (2.0 * CONSTS.hbar)
    diag = lam * (kin + v_mid)
    off = lam * (-0.5 * kin)
    rhs = (1.0 - diag) * values
    rhs[:-1] -= off * values[1:]
    rhs[1:] -= off * values[:-1]
    ab = np.zeros((3, len(values)), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = 1.0 + diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def reference_run(initial, v_fn, config, mask=None):
    x, dt = config.grid.x, config.dt
    values = initial.values.copy()
    t = config.t_start
    for i in range(config.n_steps):
        v_mid = np.asarray(v_fn(x, t + 0.5 * dt), dtype=float)
        values = reference_step(values, v_mid, dt, config.grid.dx)
        if mask is not None:
            values = values * mask
        t = config.t_start + (i + 1) * dt
    return values


def final_values(initial, v_fn, config):
    report = propagate(initial, v_fn, config, CONSTS, compute_observables=False)
    return report.snapshots[-1].values


def test_static_v_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 512)
    v_samples = 0.5 * grid.x**2
    config = PropagationConfig(dt=1e-3, t_end=0.2, grid=grid,
                               snapshot_stride=50)
    initial = gaussian(grid, center=1.0)
    v_fn = lambda x, t: v_samples
    assert np.array_equal(final_values(initial, v_fn, config),
                          reference_run(initial, v_fn, config))


def test_time_dependent_v_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 512)
    config = PropagationConfig(dt=1e-3, t_end=0.2, grid=grid,
                               snapshot_stride=50)
    initial = gaussian(grid, center=1.0)

    def v_fn(x, t):
        return 0.5 * (1.0 + 0.2 * np.sin(t)) ** 2 * x**2

    assert np.array_equal(final_values(initial, v_fn, config),
                          reference_run(initial, v_fn, config))


def test_masked_run_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 512)
    mask = AbsorbingMask(width=2.0, strength=40.0)
    config = PropagationConfig(dt=1e-3, t_end=0.5, grid=grid,
                               snapshot_stride=100, boundary=mask)
    initial = gaussian(grid, center=0.0, k=6.0)

    def v_fn(x, t):
        return -0.3 * np.sin(2.0 * t) * x

    expected = reference_run(initial, v_fn, config,
                             mask=propagator._mask_profile(grid, mask, config.dt))
    assert np.array_equal(final_values(initial, v_fn, config), expected)


def test_reversed_step_bit_identical_to_banded_reference():
    grid = Grid1D(-10.0, 10.0, 512)
    v = 0.5 * grid.x**2
    psi = gaussian(grid, center=0.7)
    fwd = crank_nicolson_step(psi, v, 1e-3, CONSTS)
    back = crank_nicolson_step(fwd, v, -1e-3, CONSTS)
    ref_fwd = reference_step(psi.values, v, 1e-3, grid.dx)
    assert np.array_equal(fwd.values, ref_fwd)
    assert np.array_equal(back.values, reference_step(ref_fwd, v, -1e-3, grid.dx))
    assert back.time == pytest.approx(0.0, abs=1e-15)


def test_factor_once_per_distinct_v(monkeypatch):
    calls = []
    factor = propagator._cn_factor

    def counting_factor(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(propagator, "_cn_factor", counting_factor)
    grid = Grid1D(-8.0, 8.0, 256)
    config = PropagationConfig(dt=1e-3, t_end=0.05, grid=grid,
                               snapshot_stride=10)
    initial = gaussian(grid)

    v_samples = 0.5 * grid.x**2
    final_values(initial, lambda x, t: v_samples, config)
    assert len(calls) == 1

    calls.clear()
    final_values(initial, lambda x, t: (1.0 + t) * 0.5 * x**2, config)
    assert len(calls) == config.n_steps

    # a v_fn that refills and returns one buffer must still be refactored
    buf = np.empty(grid.n)

    def in_place(x, t):
        buf[:] = (1.0 + t) * 0.5 * x**2
        return buf

    calls.clear()
    final_values(initial, in_place, config)
    assert len(calls) == config.n_steps


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
        propagate(gaussian(grid), v_fn, config, CONSTS,
                  compute_observables=False)
    assert requested[-1] == pytest.approx(5.5e-3)
