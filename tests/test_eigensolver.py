import json
import math

import numpy as np
import pytest

from nswp import (AiryShape, Grid1D, PhysicalConstants, StaticPotential,
                  lowest_eigenpairs)
from nswp.eigensolver import write_eigenpair
from nswp.errors import AccuracyError, ConvergenceError, RangeError
from nswp.grids import MAX_DENSE_POINTS, fd5_second, kinetic_matrix, sine_apply

CONSTS = PhysicalConstants()

# ground energy of V = x^4 (hbar = m = 1): the sine-DVR eigensolve on [-8, 8]
# agrees with itself to 2e-13 from 128 to 512 points (0.66798625915577...)
QUARTIC_E0 = 0.6679862591557771


def sine_basis(n):
    """The orthonormal DST-I matrix S_ij = sqrt(2/N) sin(pi i j / N), N = n + 1."""
    i = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, i) / (n + 1))


@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.5)])
def test_kinetic_matrix_is_the_sine_basis_kinetic_energy(hbar, mass):
    # Colbert-Miller's closed form is S diag(hbar^2 k^2 / 2m) S with
    # k_j = pi j / ((n + 1) dx): walls one dx beyond either end of the grid
    grid = Grid1D(-2.0, 3.0, 37)
    consts = PhysicalConstants(hbar, mass)
    s = sine_basis(grid.n)
    k = np.pi * np.arange(1, grid.n + 1) / ((grid.n + 1) * grid.dx)
    expected = (s * (hbar**2 * k**2 / (2.0 * mass))) @ s
    t = kinetic_matrix(grid.n, grid.dx, consts)
    assert np.max(np.abs(t - expected)) < 1e-13 * np.max(np.abs(t))


def test_kinetic_matrix_is_the_sine_second_derivative():
    # T psi = -hbar^2/2m psi'' with psi'' the sine-series derivative that
    # observables and the residual checks take
    grid = Grid1D(-4.0, 4.0, 64)
    consts = PhysicalConstants(1.3, 0.8)
    rng = np.random.default_rng(3)
    w = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    t_w = kinetic_matrix(grid.n, grid.dx, consts) @ w
    second = sine_apply(w, grid.dx, lambda k: -k * k)
    assert np.max(np.abs(t_w + consts.hbar**2 / (2 * consts.mass) * second)) \
        < 1e-13 * np.max(np.abs(t_w))


def test_hamiltonian_symmetry():
    # T is exactly symmetric, so T + V is too and eigh sees all of it
    t = kinetic_matrix(64, 6.0 / 63, CONSTS)
    assert np.array_equal(t, t.T)


def test_sine_apply_is_spectrally_accurate():
    # a Gaussian far from the walls: its first and second derivatives to
    # round-off on 128 points, where a 5-point stencil is off by 8e-4
    grid = Grid1D(-10.0, 10.0, 128)
    x = grid.x
    f = np.exp(-(x - 0.5) ** 2)
    d1 = -2.0 * (x - 0.5) * f
    d2 = (4.0 * (x - 0.5) ** 2 - 2.0) * f
    assert np.max(np.abs(sine_apply(f, grid.dx, lambda k: 1j * k) - d1)) < 1e-12
    assert np.max(np.abs(sine_apply(f, grid.dx, lambda k: -k * k) - d2)) < 1e-11
    assert np.max(np.abs(fd5_second(f, grid.dx) - d2)[2:-2]) > 1e-5


def test_sho_energies():
    grid = Grid1D(-12.0, 12.0, 256)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 3)
    for n, pair in enumerate(pairs):
        assert abs(pair.energy - (n + 0.5)) < 1e-12


def test_quartic_ground_energy():
    grid = Grid1D(-8.0, 8.0, 256)
    pair = lowest_eigenpairs(StaticPotential.quartic(1.0), grid, CONSTS, 1)[0]
    assert abs(pair.energy - QUARTIC_E0) < 1e-12


def test_mode_normalization_and_sign():
    grid = Grid1D(-12.0, 12.0, 256)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 4)
    for pair in pairs:
        f = pair.shape.values.real
        assert np.max(np.abs(pair.shape.values.imag)) == 0.0
        assert abs(np.trapezoid(f**2, dx=grid.dx) - 1.0) < 1e-10
        first_lobe = f[np.nonzero(np.abs(f) > 1e-8 * np.max(np.abs(f)))[0][0]]
        assert first_lobe > 0.0


def test_sho_parity():
    grid = Grid1D(-12.0, 12.0, 257)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 2)
    even = pairs[0].shape.values.real
    odd = pairs[1].shape.values.real
    assert np.max(np.abs(even - even[::-1])) < 1e-8
    assert np.max(np.abs(odd + odd[::-1])) < 1e-8


def test_orthogonality():
    grid = Grid1D(-12.0, 12.0, 256)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            ip = np.trapezoid(
                pairs[i].shape.values.real * pairs[j].shape.values.real,
                dx=grid.dx)
            assert abs(ip) < 1e-8


def test_fourth_order_convergence():
    # halving dx must cut the E0 error by at least 16 * 0.85, the floor the
    # Numerov operator met with a ratio near 16. The sine DVR goes past it:
    # from 32 to 63 points on +-12 the error falls from 3e-7 to round-off
    v = StaticPotential.harmonic(1.0)
    e_coarse = lowest_eigenpairs(v, Grid1D(-12.0, 12.0, 32), CONSTS, 1)[0].energy
    e_fine = lowest_eigenpairs(v, Grid1D(-12.0, 12.0, 63), CONSTS, 1)[0].energy
    assert abs(e_coarse - 0.5) > 1e-8
    assert abs(e_coarse - 0.5) > 16.0 * 0.85 * abs(e_fine - 0.5)


def test_spectral_convergence_in_n():
    # the sine DVR converges faster than any power of dx: on [-8, 8] each 4
    # more points cut the E0 error by more than 100 (a fourth-order scheme
    # would cut it by about 2), down to round-off by 32 points
    v = StaticPotential.harmonic(1.0)
    err = {n: abs(lowest_eigenpairs(v, Grid1D(-8.0, 8.0, n), CONSTS, 1)[0].energy - 0.5)
           for n in (20, 24, 28, 32)}
    assert err[20] / err[24] > 100.0
    assert err[24] / err[28] > 100.0
    assert err[32] < 1e-13


def test_residual_recheck():
    # residual of the dense pair: ||(T + V) f - E f|| / ||f||
    grid = Grid1D(-12.0, 12.0, 256)
    v = StaticPotential.harmonic(1.0)
    h = kinetic_matrix(grid.n, grid.dx, CONSTS) + np.diag(v(grid.x))
    for pair in lowest_eigenpairs(v, grid, CONSTS, 3):
        f = pair.shape.values.real
        r = np.linalg.norm(h @ f - pair.energy * f) / np.linalg.norm(f)
        assert r <= pair.residual * (1.0 + 1e-9) + 1e-12
        assert pair.residual < 1e-11


def test_unsettled_iteration_raises(monkeypatch, fresh_eigenpairs):
    # eigh's QR iteration that does not settle raises LinAlgError
    def failing(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError, match="did not converge"):
        lowest_eigenpairs(StaticPotential.harmonic(1.0),
                          Grid1D(-12.0, 12.0, 256), CONSTS, 1)


def test_out_of_order_refinement_raises(monkeypatch, fresh_eigenpairs):
    # a solver that hands the energies back in the wrong order; they are
    # taken as eigh returns them, with no refinement after it
    eigh = np.linalg.eigh

    def swapped(h):
        energies, vectors = eigh(h)
        return energies[::-1], vectors[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", swapped)
    with pytest.raises(ConvergenceError):
        lowest_eigenpairs(StaticPotential.harmonic(1.0),
                          Grid1D(-12.0, 12.0, 256), CONSTS, 2)


def test_boundary_leak_detection():
    with pytest.raises(AccuracyError):
        lowest_eigenpairs(StaticPotential.harmonic(1.0),
                          Grid1D(-2.0, 2.0, 256), CONSTS, 3)


def test_input_validation():
    with pytest.raises(ValueError):
        lowest_eigenpairs(StaticPotential.harmonic(1.0),
                          Grid1D(-12.0, 12.0, 256), CONSTS, 0)
    # more modes than grid points, before the eigensolve
    with pytest.raises(RangeError, match="k = 300 .* n = 256 "):
        lowest_eigenpairs(StaticPotential.harmonic(1.0),
                          Grid1D(-12.0, 12.0, 256), CONSTS, 300)
    with pytest.raises(ValueError):
        StaticPotential.harmonic(-1.0)
    with pytest.raises(ValueError):
        StaticPotential.quartic(0.0)


def test_dense_basis_cap_raises_before_the_matrix(monkeypatch):
    # one point past the cap: RangeError naming n, and V is never sampled
    def untouched(x):
        raise AssertionError("V sampled past the cap")

    grid = Grid1D(-12.0, 12.0, MAX_DENSE_POINTS + 1)
    with pytest.raises(RangeError, match=f"n = {MAX_DENSE_POINTS + 1} points"):
        lowest_eigenpairs(StaticPotential(untouched, {}), grid, CONSTS, 1)
    with pytest.raises(RangeError, match=f"n = {MAX_DENSE_POINTS + 1} points"):
        kinetic_matrix(MAX_DENSE_POINTS + 1, grid.dx, CONSTS)


# V = A x has no bound states; its mode is the closed-form AiryShape


def test_linear_mode_at_origin():
    # E_f = 0: f(0) = Ai(0) = 3^(-2/3) / Gamma(2/3)
    grid = Grid1D(-10.0, 10.0, 2001)
    mode = AiryShape(A=0.5, energy=0.0, consts=CONSTS).on_grid_shifted(grid, 0.0)
    i0 = np.argmin(np.abs(grid.x))
    assert abs(grid.x[i0]) < 1e-12
    assert abs(mode[i0] - 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)) < 1e-14


def test_linear_mode_energy_shift():
    # E_f = A s equals the E_f = 0 mode translated by s
    A, s = 0.5, 0.75
    grid = Grid1D(-5.0, 5.0, 401)
    shifted_energy = AiryShape(A=A, energy=A * s, consts=CONSTS).on_grid_shifted(grid, 0.0)
    base = AiryShape(A=A, energy=0.0, consts=CONSTS).on_grid_shifted(grid, s)
    assert np.max(np.abs(shifted_energy - base)) < 1e-10


def test_linear_mode_ode_residual():
    # -(1/2) f'' + A x f = E_f f, 5-point FD at dx = 1e-2
    A, E_f = 0.5, 0.2
    grid = Grid1D(-5.0, 5.0, 1001)
    f = AiryShape(A=A, energy=E_f, consts=CONSTS).on_grid_shifted(grid, 0.0)
    d2 = fd5_second(f, grid.dx)[2:-2]
    x = grid.x[2:-2]
    residual = np.abs(-0.5 * d2 + A * x * f[2:-2] - E_f * f[2:-2])
    assert np.max(residual) < 1e-5


def test_linear_mode_requires_positive_slope():
    for A in (-1.0, 0.0, float("nan")):
        with pytest.raises(RangeError):
            AiryShape(A=A, energy=0.0, consts=CONSTS)


def test_write_eigenpair(tmp_path):
    grid = Grid1D(-12.0, 12.0, 256)
    pair = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 1)[0]
    csv_path = tmp_path / "mode.csv"
    json_path = tmp_path / "mode.json"
    write_eigenpair(pair, csv_path, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == grid.n + 1
    meta = json.loads(json_path.read_text())
    assert meta["index"] == 0
    assert meta["energy"] == pair.energy
    assert meta["residual"] == pair.residual
