import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from nswp import (AbsorbingMask, Grid1D, PhysicalConstants,
                  PropagationConfig, StaticPotential, WaveField,
                  lowest_eigenpairs, observables, propagate)
from nswp import propagator
from nswp.grids import (BLOCK_ROWS, MAX_DENSE_POINTS, hamiltonian_eigenpairs, kinetic_matrix,
                        write_json)
from nswp.cases import _AIRY_MASK, run_airy_forced
from nswp.errors import AccuracyError, BoundaryError, ConfigurationError, RangeError
from nswp.verifier import shape_deviation
from nswp.propagator import STEP_TOLERANCE, _evolution_matrix

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
    assert abs(observables(out.values, grid).norm - observables(psi.values, grid).norm) < 1e-12
    assert out.time == pytest.approx(1e-3)


def breathing_trap(eps):
    """V(x, t) = x^2 (1 + eps sin 2t) / 2: max|V| = 50 (1 + eps) on +-10."""
    return lambda x, t: 0.5 * (1.0 + eps * np.sin(2.0 * t)) * x**2


def test_a_run_past_the_old_step_guard_passes_on_a_small_estimate():
    # no a-priori guard bounds a step between walls. A static V takes no
    # step: at dt max|V| / hbar = 5, ten times the guard the Strang step
    # had, the run is the exact evolution of T + V up to round-off. A V
    # that moves, at dt max|V| / hbar = 5.05 on the same grid, passes
    # because its step error estimate is small, and the estimate tracks the
    # true error, against the same run at dt / 8 (a 4096x smaller error)
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid, center=1.0, k=0.5)
    v = grid.x**2  # max|V| = 100
    out = one_step(psi, v, 0.05)
    assert np.max(np.abs(out.values - exact_evolution(psi, v, 0.05))) < 1e-13

    def final(dt):
        config = PropagationConfig(dt=dt, t_end=2.0, grid=grid, snapshot_stride=10**6)
        return propagate(psi, breathing_trap(0.01), config, CONSTS)

    coarse, fine = final(0.1), final(0.1 / 8)
    assert 0.1 * 50.5 / CONSTS.hbar > 10 * 0.5
    estimate = coarse.step_error_estimate
    assert estimate < 1e-2 * STEP_TOLERANCE
    psi_coarse, psi_fine = coarse.snapshot_values[-1], fine.snapshot_values[-1]
    error = np.max(np.abs(psi_coarse - psi_fine)) / np.max(np.abs(psi_fine))
    assert 0.8 * error < estimate < 1.25 * error


def test_an_estimate_past_the_step_tolerance_raises_accuracy_error():
    # the same trap breathing by +-90 % at dt = 0.2: the Richardson estimate
    # of the final state's error, which AccuracyError carries and names,
    # exceeds STEP_TOLERANCE and tracks the true error against the run at
    # dt / 8, which passes
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid, center=1.0, k=0.5)
    v_fn = breathing_trap(0.9)
    config = PropagationConfig(dt=0.2, t_end=2.0, grid=grid)
    with pytest.raises(AccuracyError, match="reduce the time step") as exc_info:
        propagate(psi, v_fn, config, CONSTS)
    estimate = exc_info.value.best_estimate
    assert estimate > STEP_TOLERANCE
    assert f"{estimate:.2e}" in str(exc_info.value)
    fine = propagate(psi, v_fn, PropagationConfig(dt=0.025, t_end=2.0, grid=grid), CONSTS)
    assert fine.step_error_estimate <= STEP_TOLERANCE
    # the refused run's final state: propagate's steps written out
    psi_coarse = eigen_route_run(psi, v_fn, config)[-1]
    psi_fine = fine.snapshot_values[-1]
    error = np.max(np.abs(psi_coarse - psi_fine)) / np.max(np.abs(psi_fine))
    assert 0.8 * error < estimate < 1.25 * error


def test_non_finite_potential_rejected():
    grid = Grid1D(-10.0, 10.0, 128)
    psi = gaussian(grid)
    v = np.zeros(grid.n)
    v[5] = np.nan
    with pytest.raises(ConfigurationError):
        one_step(psi, v, 1e-3)
    # a V that moves and turns NaN at a later step
    config = PropagationConfig(dt=1e-3, t_end=0.02, grid=grid)
    with pytest.raises(ConfigurationError, match="not finite"):
        propagate(psi, lambda x, t: np.full_like(x, t if t < 5e-3 else np.nan), config,
                  CONSTS)


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
    ovl = grid.dx * np.vdot(pair.shape.values, final.values)
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
    # step's did (about 1.3e-8 at t_end / 40 and 8e-10 at t_end / 80). A
    # static V takes no step and has no time error at all: at any dt, even
    # past the step guard (dt max|V| is 16 at 1 step and 4 at 4 steps), the
    # run is one product in the eigenbasis of T + V, the exact evolution up
    # to round-off
    grid = Grid1D(-8.0, 8.0, 128)
    v_samples = 0.5 * grid.x**2
    initial = gaussian(grid, center=1.0, k=0.5)
    t_end = 0.5
    exact = exact_evolution(initial, v_samples, t_end)
    for n_steps in (1, 4, 40, 57, 80, 1280):
        config = PropagationConfig(dt=t_end / n_steps, t_end=t_end, grid=grid,
                                   snapshot_stride=10**9)
        final = propagate(initial, lambda x, t: v_samples, config, CONSTS).snapshots[-1]
        assert final.time == pytest.approx(t_end, abs=1e-12)
        assert np.max(np.abs(final.values - exact)) < 1e-13 * n_steps + 1e-12


def test_time_reversal():
    grid = Grid1D(-10.0, 10.0, 256)
    v = 0.5 * grid.x**2
    psi = gaussian(grid, center=0.7)
    pairs = hamiltonian_eigenpairs(grid, v, CONSTS)
    fwd = _evolution_matrix(*pairs, 1e-3, CONSTS.hbar)
    back = _evolution_matrix(*pairs, -1e-3, CONSTS.hbar)
    assert np.max(np.abs(back @ (fwd @ psi.values) - psi.values)) < 1e-12


def test_boundary_hit_raises():
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian(grid, center=0.0, k=6.0)
    config = PropagationConfig(dt=1e-3, t_end=4.0, grid=grid, snapshot_stride=50)
    with pytest.raises(BoundaryError) as exc_info:
        propagate(psi, lambda x, t: np.zeros_like(x), config, CONSTS)
    partial = exc_info.value.partial_report
    assert partial is not None
    # a static V: the run is one product, checked as one batch; the error
    # names the first snapshot whose edge cells hold more than 1e-3 of its
    # peak, and the partial report ends there
    t_hit = partial.times[-1]
    assert 0.0 < t_hit < config.t_end
    assert f"t={t_hit:.6g} " in str(exc_info.value)
    rows = partial.snapshot_values
    assert len(rows) == len(partial.snapshots) == len(partial.norm) == len(partial.times)
    relative_edge = (np.maximum(np.abs(rows[:, 1]), np.abs(rows[:, -2]))
                     / np.max(np.abs(rows), axis=1))
    assert np.all(relative_edge[:-1] <= 1e-3) and relative_edge[-1] > 1e-3


def test_boundary_hit_stops_the_steps():
    # V moves at every step, so the run steps; it stops at the snapshot that
    # hit the wall and asks v_fn for no later time
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian(grid, center=0.0, k=6.0)
    config = PropagationConfig(dt=1e-3, t_end=4.0, grid=grid, snapshot_stride=50)
    asked = []

    def v_fn(x, t):
        asked.append(t)
        return np.full_like(x, 1e-6 * t)

    with pytest.raises(BoundaryError) as exc_info:
        propagate(psi, v_fn, config, CONSTS)
    t_hit = exc_info.value.partial_report.times[-1]
    assert 0.0 < t_hit < 2.0
    assert f"t={t_hit:.6g} " in str(exc_info.value)
    assert max(asked) == pytest.approx(t_hit, abs=1e-12)


def test_a_packet_that_starts_on_a_wall_is_refused_at_t_0_on_every_route():
    # its edge cells start at 1.3e-2 of its peak: a static V (the product)
    # and a V that moves (the steps) both refuse it at t = 0 with a one-row
    # report, before the first step asks v_fn for any later time
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian(grid, center=5.0, k=6.0)
    config = PropagationConfig(dt=0.05, t_end=1.0, grid=grid, snapshot_stride=10)
    asked = []

    def moving(x, t):
        asked.append(t)
        return np.full_like(x, 1e-6 * t)

    errors = []
    for v_fn in (lambda x, t: np.zeros_like(x), moving):
        with pytest.raises(BoundaryError, match="t=0 ") as exc_info:
            propagate(psi, v_fn, config, CONSTS)
        errors.append(exc_info.value)
        partial = exc_info.value.partial_report
        assert partial.times.tolist() == [0.0]
        assert np.array_equal(partial.snapshot_values, psi.values[None])
    assert str(errors[0]) == str(errors[1])
    assert "relative edge amplitude 1.3" in str(errors[1])
    assert max(asked) == 0.0


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


@pytest.mark.parametrize("route", ["static", "moving", "mask"])
def test_every_report_column_is_a_float_array(route):
    # V static between walls takes the eigenbasis product, V moving takes
    # steps, and the mask the split step with its row-at-a-time norm
    grid = Grid1D(-6.0, 6.0, 128)
    mask = AbsorbingMask(width=1.5, strength=10.0) if route == "mask" else None
    config = PropagationConfig(dt=0.02, t_end=0.2, grid=grid, snapshot_stride=3, mask=mask)
    move = 0.0 if route == "static" else 0.1
    report = propagate(gaussian(grid, k=0.5), lambda x, t: 0.5 * (x - move * t) ** 2,
                       config, CONSTS)
    rho0 = np.abs(report.snapshot_values[0]) ** 2
    report.shape_deviation = shape_deviation(
        report, lambda t: np.broadcast_to(rho0, (len(t), grid.n)))
    recorded = ["times", "norm", "shape_deviation"]
    if mask is None:
        recorded[2:2] = ["centroid", "momentum_mean", "energy_mean"]
    columns = {name: getattr(report, name) for name in (
        "times", "norm", "centroid", "momentum_mean", "energy_mean", "shape_deviation",
        "htilde_residual")}
    for name, column in columns.items():
        assert type(column) is np.ndarray and column.dtype == np.float64, name
        assert len(column) == (5 if name in recorded else 0), name
    as_lists = {name: [float(v) for v in columns[name]] for name in recorded}
    assert json.dumps(report.to_dict()) == json.dumps(as_lists)


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
    assert report.shape_deviation.tolist() == [] and report.htilde_residual.tolist() == []
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

# Yoshida's weights of the composed step and each substep's kick time, in
# units of dt from the start of the step, written out test-side
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
SUBSTEPS = ((W1, 0.5 * W1), (1.0 - 2.0 * W1, 0.5), (W1, 1.0 - 0.5 * W1))


def reference_run(initial, v_fn, config):
    """Yoshida's composition of three substeps per step, each the exact
    evolution of T + V_ref, V_ref = V(t_start + dt/2), over w dt between two
    half kicks exp(-i (V - V_ref) w dt / 2 hbar), V taken at the substep's
    midpoint, the fixed part ``exact_evolution``."""
    x, dt = config.grid.x, config.dt
    values = initial.values.copy()
    v_ref = np.array(v_fn(x, config.t_start + 0.5 * dt), dtype=float)
    for i in range(config.n_steps):
        t = config.t_start + i * dt
        for w, at in SUBSTEPS:
            angle = (-0.5 * w * dt / CONSTS.hbar) * (v_fn(x, t + at * dt) - v_ref)
            kick = np.cos(angle) + 1j * np.sin(angle)
            moved = WaveField(grid=config.grid, values=kick * values)
            values = kick * exact_evolution(moved, v_ref, w * dt)
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


def eigen_route_run(initial, v_fn, config):
    """propagate's route between walls written out with numpy, all snapshots
    as rows. T + V_ref, V_ref = V(t_start + dt/2), is diagonalised test-side
    (H = U diag(E) U^T). If V(t + dt/2) is V_ref at every step, the state
    after k steps is U (exp(-i E k dt / hbar) * U^T psi0), the real and
    imaginary parts each one real product with U^T per block of
    ``BLOCK_ROWS`` snapshots. If V moves at any step, every step from
    t_start is ``composed_steps``."""
    grid, dt, hbar = config.grid, config.dt, CONSTS.hbar
    x, n_steps, stride = grid.x, config.n_steps, config.snapshot_stride
    steps = [0, *range(stride, n_steps, stride), n_steps]
    v_ref = np.array(v_fn(x, config.t_start + 0.5 * dt), dtype=float)
    h = kinetic_matrix(grid.n, grid.dx, CONSTS)
    h[np.diag_indices(grid.n)] += v_ref
    e, u = np.linalg.eigh(h)
    if not any((v_fn(x, (config.t_start + i * dt) + 0.5 * dt) - v_ref).any()
               for i in range(n_steps)):
        re, im = u.T @ initial.values.real, u.T @ initial.values.imag
        out = np.empty((len(steps), grid.n), dtype=complex)
        out[0] = initial.values
        for b in range(1, len(steps), BLOCK_ROWS):
            angle = np.outer(np.asarray(steps[b:b + BLOCK_ROWS], dtype=float) * (-dt / hbar), e)
            cos, sin = np.cos(angle), np.sin(angle)
            out[b:b + BLOCK_ROWS].real = (cos * re - sin * im) @ u.T
            out[b:b + BLOCK_ROWS].imag = (sin * re + cos * im) @ u.T
        return out
    snapshots = composed_steps(initial, v_fn, config)
    return np.array([snapshots[k] for k in steps])


def composed_steps(initial, v_fn, config):
    """The state after each of the run's steps from t_start, psi0 first, each
    step Yoshida's three substeps: a half kick exp(-i (V - V_ref) w dt /
    2 hbar) at the substep's midpoint, U diag(exp(-i E w dt / hbar)) U^T
    (its real and imaginary parts each one real product) and the same half
    kick, with T + V_ref = U diag(E) U^T, V_ref = V(t_start + dt/2),
    diagonalised test-side."""
    grid, dt, hbar = config.grid, config.dt, CONSTS.hbar
    x = grid.x
    v_ref = np.array(v_fn(x, config.t_start + 0.5 * dt), dtype=float)
    h = kinetic_matrix(grid.n, grid.dx, CONSTS)
    h[np.diag_indices(grid.n)] += v_ref
    e, u = np.linalg.eigh(h)
    matrices = {}
    for w, _ in SUBSTEPS:
        angle = (-(w * dt) / hbar) * e
        matrices[w] = ((u * np.cos(angle)) @ u.T) + 1j * ((u * np.sin(angle)) @ u.T)
    values, states = initial.values, [initial.values]
    for i in range(config.n_steps):
        t = config.t_start + i * dt
        for w, at in SUBSTEPS:
            angle = (-0.5 * (w * dt) / hbar) * (v_fn(x, t + at * dt) - v_ref)
            kick = np.cos(angle) + 1j * np.sin(angle)
            values = kick * (matrices[w] @ (kick * values))
        states.append(values)
    return states


def all_snapshots(initial, v_fn, config):
    return propagate(initial, v_fn, config, CONSTS).snapshot_values


# The two tests below held the loop to a reference built on scipy's banded
# solver, then to the step matrix repeated from the first step. A V that
# never moves now takes one eigenbasis product instead, and a V that moves
# the composed step, so they hold every snapshot of propagate bit for bit to
# the route written out, ``eigen_route_run``; the property after them holds
# a V that moves to the repeated composed step bit for bit, and a static one
# to it within round-off.

def test_static_v_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 128)
    v_samples = 0.5 * grid.x**2
    config = PropagationConfig(dt=1e-2, t_end=0.2, grid=grid,
                               snapshot_stride=5)
    initial = gaussian(grid, center=1.0)
    v_fn = lambda x, t: v_samples
    assert np.array_equal(all_snapshots(initial, v_fn, config),
                          eigen_route_run(initial, v_fn, config))


def test_time_dependent_v_bit_identical_to_banded_reference():
    grid = Grid1D(-8.0, 8.0, 128)
    config = PropagationConfig(dt=1e-2, t_end=0.2, grid=grid,
                               snapshot_stride=5)
    initial = gaussian(grid, center=1.0)

    def v_fn(x, t):
        return 0.5 * (1.0 + 0.2 * np.sin(t)) ** 2 * x**2

    assert np.array_equal(all_snapshots(initial, v_fn, config),
                          eigen_route_run(initial, v_fn, config))


def repeated_step_run(initial, v_fn, config):
    """Every snapshot of the composed step repeated from t_start, static V
    or not (``composed_steps``)."""
    states = composed_steps(initial, v_fn, config)
    return np.array([states[k] for k in range(0, config.n_steps, config.snapshot_stride)]
                    + [states[-1]])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(48, 160), dt=st.floats(1e-3, 1e-2), n_steps=st.integers(1, 150),
       stride=st.integers(1, 40), t_start=st.floats(-1.0, 1.0),
       move=st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(n=128, dt=1e-2, n_steps=100, stride=5, t_start=0.0, move=None)
@example(n=128, dt=1e-2, n_steps=100, stride=5, t_start=0.0, move=0.0)
def test_static_stretch_agrees_with_the_repeated_step(n, dt, n_steps, stride, t_start, move):
    # V is the static trap until the step ``move`` of the way through the
    # run (the second step at least; None: never), then modulated; every
    # snapshot agrees with the step repeated from t_start, bit for bit
    # whenever V moves
    grid = Grid1D(-8.0, 8.0, n)
    v_static = 0.5 * grid.x**2
    config = PropagationConfig(dt=dt, t_end=t_start + n_steps * dt, grid=grid,
                               snapshot_stride=stride, t_start=t_start)
    first = n_steps if move is None else 1 + int(move * (n_steps - 1))
    t_move = t_start + (first + 0.25) * dt

    def v_fn(x, t):
        return v_static if t < t_move else v_static * (1.0 + 0.2 * np.sin(t - t_move))

    initial = WaveField(grid=grid, values=gaussian(grid, center=1.0, k=0.5).values,
                        time=t_start)
    report = propagate(initial, v_fn, config, CONSTS)
    reference = repeated_step_run(initial, v_fn, config)
    assert report.snapshot_values.shape == reference.shape
    if first < n_steps:
        assert np.array_equal(report.snapshot_values, reference)
    peak = np.max(np.abs(initial.values))
    assert np.max(np.abs(report.snapshot_values - reference)) < 1e-12 * peak


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
    assert np.max(np.abs(np.abs(final.values[sel]) ** 2 - rho_cn)) / np.max(rho_cn) < 1e-4


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
    # forward. One step of a static V is the product in its eigenbasis,
    # that matrix's product up to round-off
    grid = Grid1D(-10.0, 10.0, 256)
    v = 0.5 * grid.x**2
    psi = gaussian(grid, center=0.7)
    pairs = hamiltonian_eigenpairs(grid, v, CONSTS)
    fwd = _evolution_matrix(*pairs, 1e-3, CONSTS.hbar)
    back = _evolution_matrix(*pairs, -1e-3, CONSTS.hbar)
    assert np.array_equal(back, np.conj(fwd))
    out = one_step(psi, v, 1e-3)
    assert np.max(np.abs(out.values - fwd @ psi.values)) < 1e-14 * np.max(np.abs(psi.values))
    assert out.time == pytest.approx(1e-3, abs=1e-15)


def test_factor_once_per_distinct_v(monkeypatch, fresh_eigenpairs):
    # one eigensolve per distinct V_ref, shared by every run that has it: a
    # static V, a time-dependent V and a v_fn that refills and returns one
    # buffer all start from the same V_ref, and so does each run's second
    # pass at 2 dt. The step matrices are built only once V moves: never for
    # the static V, two per pass (weights w1 and w0) for each other run
    eighs, steps = [], []
    eigh, step = np.linalg.eigh, propagator._evolution_matrix

    def counting_eigh(*args):
        eighs.append(1)
        return eigh(*args)

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(propagator, "_evolution_matrix", counting_step)
    grid = Grid1D(-8.0, 8.0, 256)
    config = PropagationConfig(dt=1e-3, t_end=0.05, grid=grid,
                               snapshot_stride=10)
    initial = gaussian(grid, center=1.0)

    def v_fn(x, t):
        return (1.0 + 10.0 * t) * 0.5 * x**2

    v_samples = v_fn(grid.x, 0.5 * config.dt)
    static = final_values(initial, lambda x, t: v_samples, config)
    assert (len(eighs), len(steps)) == (1, 0)

    moving = final_values(initial, v_fn, config)
    assert (len(eighs), len(steps)) == (1, 4)

    buf = np.empty(grid.n)

    def in_place(x, t):
        buf[:] = v_fn(x, t)
        return buf

    refilled = final_values(initial, in_place, config)
    assert (len(eighs), len(steps)) == (1, 8)
    # V_ref is a copy, so the buffer's later contents act as kicks; without
    # it the run would stay at V_ref, the static run
    assert np.array_equal(refilled, moving)
    assert np.max(np.abs(refilled - static)) > 1e-4
