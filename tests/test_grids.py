import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nswp import Grid1D, PhysicalConstants, WaveField, observables, write_wavefield_csv
from nswp.errors import DegenerateFieldError, RangeError
from nswp.grids import (fd5_first, fd5_second, interior, kinetic_matrix, shift_values,
                        sine_apply)

REFERENCE = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def gaussian_field(grid, center=0.0, k=0.0, sigma=1.0):
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k * x)
    psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=grid.dx))
    return WaveField(grid=grid, values=psi)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 64)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 4)
    g = Grid1D(-1.0, 1.0, 9)
    assert g.dx == pytest.approx(0.25)
    assert g.width == 2.0
    assert g.x[0] == -1.0 and g.x[-1] == 1.0


def test_grid_points_are_built_once_and_read_only():
    g = Grid1D(-1.0, 1.0, 1024)
    assert g.x is g.x
    assert np.array_equal(g.x, np.linspace(-1.0, 1.0, 1024))
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    # the cache is not a field: equality and hashing see only the bounds and n
    fresh = Grid1D(-1.0, 1.0, 1024)
    assert g == fresh and hash(g) == hash(fresh)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=-1.0)


def test_wavefield_validation():
    grid = Grid1D(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        WaveField(grid=grid, values=np.zeros(15))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        WaveField(grid=grid, values=bad)
    for bad_value in (complex(0.0, np.nan), complex(np.inf, 0.0)):
        bad = np.zeros(16, dtype=complex)
        bad[5] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            WaveField(grid=grid, values=bad)


def test_observables_sho_ground():
    # ground Gaussian of the SHO (omega = hbar = m = 1): E = 0.5
    grid = Grid1D(-12.0, 12.0, 2048)
    psi = gaussian_field(grid, sigma=np.sqrt(0.5))
    obs = observables(psi.values, grid, 0.5 * grid.x**2)
    assert abs(obs.centroid) < 1e-10
    assert abs(obs.momentum_mean) < 1e-10
    assert abs(obs.energy_mean - 0.5) < 1e-12
    assert abs(obs.norm - 1.0) < 1e-10


def test_observables_phase_invariance():
    grid = Grid1D(-12.0, 12.0, 1024)
    psi = gaussian_field(grid, center=0.3, k=0.7)
    rotated = WaveField(grid=grid, values=psi.values * np.exp(1j * 1.234))
    v = 0.5 * grid.x**2
    o1 = observables(psi.values, grid, v)
    o2 = observables(rotated.values, grid, v)
    assert o1.centroid == pytest.approx(o2.centroid, abs=1e-13)
    assert o1.momentum_mean == pytest.approx(o2.momentum_mean, abs=1e-13)
    assert o1.energy_mean == pytest.approx(o2.energy_mean, abs=1e-13)


def test_observables_plane_wave_boost():
    grid = Grid1D(-12.0, 12.0, 2048)
    psi = gaussian_field(grid, k=2.0)
    obs = observables(psi.values, grid, None)
    # the sine-series derivative is exact to round-off for this packet
    assert abs(obs.momentum_mean - 2.0) < 1e-10


def test_observables_energy_is_the_dvr_expectation():
    # <H> = psi^H (T + V) psi / psi^H psi with T the dense sine-DVR kinetic
    # matrix, the plain-sum quadratic form the Dirichlet step conserves
    grid = Grid1D(-8.0, 8.0, 128)
    v = 0.5 * grid.x**2
    psi = gaussian_field(grid, center=1.0, k=0.5).values
    h_psi = kinetic_matrix(grid.n, grid.dx, PhysicalConstants()) @ psi + v * psi
    expected = np.vdot(psi, h_psi).real / np.vdot(psi, psi).real
    obs = observables(psi, grid, v)
    assert obs.energy_mean == pytest.approx(expected, rel=1e-12)


def test_observables_energy_is_numerov_expectation():
    # the Numerov form psi^H M^-1 (K + M V) psi / psi^H psi (dense K =
    # -(1/2) d^2/dx^2 and M = 1 + d^2/12 on the 3-point d^2) converges to
    # <H> as dx^4: the gap reads 5.0e-7 and 3.1e-8 (relative) at 128 and 256
    # points, and <H> itself is this packet's exact 1.25 to 1e-10
    def numerov_energy(grid, v, psi):
        second = (np.diag(np.full(grid.n - 1, 1.0), -1) - 2.0 * np.eye(grid.n)
                  + np.diag(np.full(grid.n - 1, 1.0), 1))
        k = -0.5 * second / grid.dx**2
        m = np.eye(grid.n) + second / 12.0
        h_psi = np.linalg.solve(m, k @ psi) + v * psi
        return np.vdot(psi, h_psi).real / np.vdot(psi, psi).real

    gaps = []
    for n in (128, 256):
        grid = Grid1D(-8.0, 8.0, n)
        v = 0.5 * grid.x**2
        psi = gaussian_field(grid, center=1.0, k=0.5).values
        energy = observables(psi, grid, v).energy_mean
        assert abs(energy - 1.25) < 1e-10
        gaps.append(abs(energy - numerov_energy(grid, v, psi)) / energy)
    dx_ratio4 = (255.0 / 127.0) ** 4
    assert 0.95 * dx_ratio4 < gaps[0] / gaps[1] < 1.05 * dx_ratio4


def packet_with_noise(n, seed, noise):
    """A Gaussian packet of random centre, width and momentum on [-10, 10],
    plus complex noise of ``noise`` times its peak at every point."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(-10.0, 10.0, n)
    psi = gaussian_field(grid, center=rng.uniform(-3.0, 3.0), k=rng.uniform(-3.0, 3.0),
                         sigma=rng.uniform(0.5, 2.0)).values
    psi = psi + noise * np.max(np.abs(psi)) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return WaveField(grid=grid, values=psi)


def observables_by_derivative_arrays(psi, v, consts):
    """(norm, <x>, <P>, <H>, variance) as plain sums: <P> over the
    ``sine_apply`` derivative array and <H> as one sum over T psi + V psi, T the
    dense ``kinetic_matrix``."""
    dx, x, values = psi.grid.dx, psi.grid.x, psi.values
    rho = np.abs(values) ** 2
    nrm2 = dx * np.sum(rho)
    centroid = dx * np.sum(x * rho) / nrm2
    variance = dx * np.sum((x - centroid) ** 2 * rho) / nrm2
    d1 = sine_apply(values, dx, lambda k: 1j * k)
    p = dx * np.sum(np.conj(values) * (-1j * consts.hbar) * d1).real / nrm2
    h_psi = kinetic_matrix(len(values), dx, consts) @ values + v * values
    e = dx * np.sum(np.conj(values) * h_psi).real / nrm2
    return np.sqrt(nrm2), centroid, p, e, variance


@REFERENCE
@given(n=st.integers(64, 400), seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1.0),
       hbar=st.floats(0.5, 2.0), mass=st.floats(0.5, 2.0))
@example(n=255, seed=1, noise=0.0, hbar=1.0, mass=1.0)
@example(n=256, seed=2, noise=0.3, hbar=1.0, mass=1.0)
def test_observables_is_the_derivative_array_formula(n, seed, noise, hbar, mass):
    consts = PhysicalConstants(hbar, mass)
    psi = packet_with_noise(n, seed, noise)
    v = 0.5 * psi.grid.x**2  # V >= 0, so <H> > 0
    obs = observables(psi.values, psi.grid, v, consts)
    norm, centroid, p, e, variance = observables_by_derivative_arrays(psi, v, consts)
    assert obs.norm == pytest.approx(norm, rel=1e-12)
    assert obs.energy_mean == pytest.approx(e, rel=1e-12)
    assert obs.variance == pytest.approx(variance, rel=1e-12)
    # <x> and <P> may vanish: each is held relative to its scale, the
    # grid's half-width and the rms sine-series momentum
    assert abs(obs.centroid - centroid) <= 1e-12 * psi.grid.x_max
    p_rms = (hbar * np.linalg.norm(sine_apply(psi.values, psi.grid.dx, lambda k: 1j * k))
             / np.linalg.norm(psi.values))
    assert abs(obs.momentum_mean - p) <= 1e-12 * p_rms
    # a batch is the one-field observables, row by row, with one V per row:
    # here the field and its complex conjugate (-<P>) under 2 V
    batch = observables(np.stack([psi.values, np.conj(psi.values)]), psi.grid,
                        np.stack([v, 2.0 * v]), consts)
    other = observables(np.conj(psi.values), psi.grid, 2.0 * v, consts)
    for name in ("norm", "centroid", "momentum_mean", "energy_mean", "variance"):
        column, scale = getattr(batch, name), (psi.grid.x_max if name == "centroid" else 1.0)
        assert column.shape == (2,)
        for value, single in zip(column, (getattr(obs, name), getattr(other, name))):
            assert abs(value - single) <= 1e-13 * max(scale, abs(single))


def test_observables_degenerate_field():
    grid = Grid1D(-1.0, 1.0, 64)
    psi = WaveField(grid=grid, values=np.zeros(64))
    with pytest.raises(DegenerateFieldError):
        observables(psi.values, grid, None)


def test_shift_moves_centroid():
    psi = gaussian_field(Grid1D(-15.0, 15.0, 1024))
    shifted = shift_values(psi.values, 1.0, psi.grid.dx)
    assert abs(observables(shifted, psi.grid).centroid - 1.0) < 1e-8


def test_shift_roundtrip():
    psi = gaussian_field(Grid1D(-15.0, 15.0, 1024), k=0.4)
    dx = psi.grid.dx
    back = shift_values(shift_values(psi.values, 1.7, dx), -1.7, dx)
    assert np.max(np.abs(back - psi.values)) < 1e-10


def test_shift_composes_additively():
    psi = gaussian_field(Grid1D(-15.0, 15.0, 1024))
    dx = psi.grid.dx
    one = shift_values(psi.values, 0.9 + 0.4, dx)
    two = shift_values(shift_values(psi.values, 0.9, dx), 0.4, dx)
    assert np.max(np.abs(one - two)) < 1e-9


def test_shift_keeps_real_input_real():
    psi = gaussian_field(Grid1D(-15.0, 15.0, 1024))
    shifted = shift_values(psi.values.real, 0.3, psi.grid.dx)
    assert shifted.dtype == np.float64


@REFERENCE
@given(n=st.integers(16, 400), seed=st.integers(0, 2**32 - 1), frac=st.floats(-0.5, 0.5))
@example(n=255, seed=1, frac=0.123)
@example(n=256, seed=1, frac=-0.321)
def test_real_shift_is_the_real_part_of_the_complex_shift(n, seed, frac):
    grid = Grid1D(-10.0, 10.0, n)
    h = np.random.default_rng(seed).normal(size=n)
    a = frac * grid.width
    real = shift_values(h, a, grid.dx)
    full = shift_values(h.astype(complex), a, grid.dx)
    assert real.dtype == np.float64 and real.shape == (n,)
    assert np.max(np.abs(real - full.real)) <= 1e-12 * np.max(np.abs(h))
    # an array of shifts gives one row per shift, each the one-shift result
    rows = shift_values(h, np.array([a, -a]), grid.dx)
    assert rows.shape == (2, n)
    assert np.array_equal(rows[0], real)
    assert np.array_equal(rows[1], shift_values(h, -a, grid.dx))


def test_csv_roundtrip(tmp_path):
    psi = gaussian_field(Grid1D(-8.0, 8.0, 300), k=1.1)
    path = tmp_path / "field.csv"
    write_wavefield_csv(psi, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,re,im"
    x, re, im = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    # %.17g round-trips doubles exactly
    assert np.array_equal(x, psi.grid.x)
    assert np.array_equal(re, psi.values.real) and np.array_equal(im, psi.values.imag)


def test_fd5_stencils_exact_on_quartic():
    # the 5-point stencils are exact for polynomials of degree <= 4 (first)
    # and <= 5 (second); the two points at each end are left at zero
    grid = Grid1D(-1.0, 2.0, 31)
    x = grid.x
    d1 = fd5_first(x**4 - x, grid.dx)
    d2 = fd5_second(x**5 + x**2, grid.dx)
    assert np.allclose(d1[2:-2], 4 * x[2:-2] ** 3 - 1, atol=1e-10)
    assert np.allclose(d2[2:-2], 20 * x[2:-2] ** 3 + 2, atol=1e-9)
    assert not np.any(d1[[0, 1, -2, -1]]) and not np.any(d2[[0, 1, -2, -1]])


@pytest.mark.parametrize("n", [1024, 2048, 4095])
def test_interior_reads_the_same_x_range_at_any_resolution(n):
    # a margin is a length in x: 16 cells of 4096 points on [-36, 12]
    grid = Grid1D(-36.0, 12.0, n)
    margin = 16 * 48.0 / 4095
    sel = interior(grid, margin)
    kept = grid.x[sel]
    assert kept[0] >= grid.x_min + margin - 1e-12 and kept[-1] <= grid.x_max - margin + 1e-12
    assert kept[0] - grid.dx < grid.x_min + margin and kept[-1] + grid.dx > grid.x_max - margin
    assert sel.start == grid.n - sel.stop


def test_interior_keeps_whole_cells_and_refuses_an_empty_range():
    grid = Grid1D(-36.0, 12.0, 4096)
    # a whole number of cells up to round-off keeps exactly that many out
    assert interior(grid, 16 * grid.dx) == slice(16, 4096 - 16)
    assert interior(grid, 0.0) == slice(0, 4096)
    with pytest.raises(RangeError, match="leaves no point"):
        interior(grid, 24.0)
