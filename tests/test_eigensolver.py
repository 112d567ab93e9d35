import json
import math

import numpy as np
import pytest

from nswp import (AiryShape, Grid1D, PhysicalConstants, StaticPotential,
                  eigensolver, lowest_eigenpairs)
from nswp.eigensolver import write_eigenpair
from nswp.errors import AccuracyError, ConvergenceError, RangeError
from nswp.grids import (M_DIAG, M_OFF, bands_apply, fd5_second, m_solve, numerov_bands,
                        tridiagonal_solver)

CONSTS = PhysicalConstants()

# ground energy of V = x^4 (hbar = m = 1), frozen from a Richardson-
# extrapolated eigensolve at n = 16384 on [-8, 8]
QUARTIC_E0 = 0.6679862590775


def dense(diag, off, n):
    """Dense matrix with the bands laid out as in ``numerov_bands``."""
    off = np.broadcast_to(off, (n,))
    return (np.diag(np.broadcast_to(diag, (n,))) + np.diag(off[:-1], -1)
            + np.diag(off[1:], 1))


def test_numerov_bands_free():
    # v = 0 gives the 3-point kinetic matrix K
    grid = Grid1D(0.0, 1.0, 8)
    diag, off = numerov_bands(0.0, grid.dx, CONSTS)
    kin = 1.0 / grid.dx**2
    assert diag == pytest.approx(kin)
    assert off == pytest.approx(-0.5 * kin)


def test_numerov_bands_harmonic():
    # the bands are those of K + M V, M = tridiag(1, 10, 1) / 12
    grid = Grid1D(-2.0, 2.0, 9)
    v = 0.5 * grid.x**2
    diag, off = numerov_bands(v, grid.dx, CONSTS)
    k = dense(*numerov_bands(0.0, grid.dx, CONSTS), grid.n)
    m = dense(M_DIAG, M_OFF, grid.n)
    assert np.allclose(dense(diag, off, grid.n), k + m @ np.diag(v))
    w = np.random.default_rng(3).normal(size=grid.n)
    assert np.allclose(bands_apply(diag, off, w), (k + m @ np.diag(v)) @ w)


def test_hamiltonian_symmetry():
    # H_N = M^-1 (K + M V) is symmetric: <v, H w> == <w, H v> for random vectors
    grid = Grid1D(-3.0, 3.0, 64)
    bands = numerov_bands(StaticPotential.quartic(1.0)(grid.x), grid.dx, CONSTS)
    rng = np.random.default_rng(7)
    v, w = rng.normal(size=64), rng.normal(size=64)
    assert np.dot(v, m_solve(bands_apply(*bands, w))) == pytest.approx(
        np.dot(w, m_solve(bands_apply(*bands, v))))


@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiagonal_solver_matches_a_dense_solve(dtype):
    rng = np.random.default_rng(11)
    n = 40

    def sample():
        a = rng.normal(size=n)
        return a + 1j * rng.normal(size=n) if dtype is complex else a

    diag, off, b = 4.0 + sample(), sample(), sample()
    bands = diag.copy(), off.copy()
    solve = tridiagonal_solver(diag, off)
    x = solve(b)
    assert x.dtype == np.dtype(dtype)
    assert np.allclose(x, np.linalg.solve(dense(diag, off, n), b), rtol=1e-13, atol=0)
    # the factorization works on copies: the caller's bands are untouched
    assert np.array_equal(diag, bands[0]) and np.array_equal(off, bands[1])
    # a second solve reuses the factors
    assert np.allclose(solve(2.0 * b), 2.0 * x, rtol=1e-14, atol=0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("diag, off", [
    (np.zeros(8), np.zeros(8)),
    (np.ones(4), np.array([1.0, 1.0, 0.0, 1.0])),  # rows 0 and 1 are equal
])
def test_tridiagonal_solver_returns_none_for_a_singular_matrix(diag, off, dtype):
    assert np.linalg.matrix_rank(dense(diag, off, len(diag))) < len(diag)
    assert tridiagonal_solver(diag.astype(dtype), off) is None


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("kind", [float, complex])
def test_m_solve_equals_a_dgtsv_reference(n, kind):
    # every report's energy column goes through m_solve, so it must stay
    # bit for bit the one real tridiagonal solve it replaced
    from scipy.linalg.lapack import dgtsv

    rng = np.random.default_rng(n)
    values = rng.normal(size=n)
    if kind is complex:
        values = values + 1j * rng.normal(size=n)
    off = np.full(n - 1, M_OFF)
    rhs = np.column_stack((values.real, values.imag)) if kind is complex else values
    x = dgtsv(off, np.full(n, M_DIAG), off.copy(), rhs)[3]
    reference = x[:, 0] + 1j * x[:, 1] if kind is complex else x
    kept = values.copy()
    assert np.array_equal(m_solve(values), reference)
    assert np.array_equal(values, kept)


def test_sho_energies():
    grid = Grid1D(-12.0, 12.0, 2048)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 3)
    for n, pair in enumerate(pairs):
        exact = n + 0.5
        assert abs(pair.energy - exact) / exact < 5e-5


def test_quartic_ground_energy():
    grid = Grid1D(-8.0, 8.0, 2048)
    pair = lowest_eigenpairs(StaticPotential.quartic(1.0), grid, CONSTS, 1)[0]
    assert abs(pair.energy - QUARTIC_E0) < 1e-4


def test_mode_normalization_and_sign():
    grid = Grid1D(-12.0, 12.0, 1024)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 4)
    for pair in pairs:
        f = pair.shape.values.real
        assert np.max(np.abs(pair.shape.values.imag)) == 0.0
        assert abs(np.trapezoid(f**2, dx=grid.dx) - 1.0) < 1e-10
        first_lobe = f[np.nonzero(np.abs(f) > 1e-8 * np.max(np.abs(f)))[0][0]]
        assert first_lobe > 0.0


def test_sho_parity():
    grid = Grid1D(-12.0, 12.0, 1025)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 2)
    even = pairs[0].shape.values.real
    odd = pairs[1].shape.values.real
    assert np.max(np.abs(even - even[::-1])) < 1e-8
    assert np.max(np.abs(odd + odd[::-1])) < 1e-8


def test_orthogonality():
    grid = Grid1D(-12.0, 12.0, 1024)
    pairs = lowest_eigenpairs(StaticPotential.harmonic(1.0), grid, CONSTS, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            ip = np.trapezoid(
                pairs[i].shape.values.real * pairs[j].shape.values.real,
                dx=grid.dx)
            assert abs(ip) < 1e-8


def test_fourth_order_convergence():
    # Numerov: halving dx shrinks the E0 error by 16 +/- 15%
    v = StaticPotential.harmonic(1.0)
    e_coarse = lowest_eigenpairs(v, Grid1D(-12.0, 12.0, 512), CONSTS, 1)[0].energy
    e_fine = lowest_eigenpairs(v, Grid1D(-12.0, 12.0, 1023), CONSTS, 1)[0].energy
    ratio = abs(e_coarse - 0.5) / abs(e_fine - 0.5)
    assert 16.0 * 0.85 < ratio < 16.0 * 1.15


def test_residual_recheck():
    # residual of the Numerov pair: ||(K + M V) f - E M f|| / ||f||
    grid = Grid1D(-12.0, 12.0, 1024)
    v = StaticPotential.harmonic(1.0)
    diag, off = numerov_bands(v(grid.x), grid.dx, CONSTS)
    for pair in lowest_eigenpairs(v, grid, CONSTS, 3):
        f = pair.shape.values.real
        r = np.linalg.norm(bands_apply(diag, off, f)
                           - pair.energy * bands_apply(M_DIAG, M_OFF, f)) / np.linalg.norm(f)
        assert r <= pair.residual * (1.0 + 1e-9) + 1e-12
        assert pair.residual < 1e-8


def test_unsettled_iteration_raises(monkeypatch):
    monkeypatch.setattr(eigensolver, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        lowest_eigenpairs(StaticPotential.harmonic(1.0),
                          Grid1D(-12.0, 12.0, 256), CONSTS, 1)


def test_out_of_order_refinement_raises(monkeypatch):
    # seeds handed over in the wrong order refine to descending energies
    seed = eigensolver.tridiagonal_eigenpairs

    def swapped(*args, **kwargs):
        energies, vectors = seed(*args, **kwargs)
        return energies[::-1], vectors[:, ::-1]

    monkeypatch.setattr(eigensolver, "tridiagonal_eigenpairs", swapped)
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
    with pytest.raises(ValueError):
        StaticPotential.harmonic(-1.0)
    with pytest.raises(ValueError):
        StaticPotential.quartic(0.0)


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
    f = AiryShape(A=A, energy=E_f, consts=CONSTS).values_at(grid.x)
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
