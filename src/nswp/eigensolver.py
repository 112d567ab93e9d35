"""Bound-state shapes from a static potential.

Solves the time-independent problem on the grid with the fourth-order
Numerov Hamiltonian H_N = M^-1 K + V and Dirichlet walls, as the
generalized tridiagonal problem (K + M V) f = E M f (``grids.numerov_bands``).
The k lowest pairs of the 3-point K + V (``grids.tridiagonal_eigenpairs``)
seed Rayleigh-quotient inverse iteration by ``grids.tridiagonal_solver``,
which converges in a few steps.

The linear potential V = A x has a continuous spectrum and bypasses the
eigensolver: its shape is the closed-form Airy mode, ``constructor.AiryShape``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConvergenceError, RangeError
from .grids import (M_DIAG, M_OFF, Grid1D, PhysicalConstants, WaveField, bands_apply, m_solve,
                    numerov_bands, tridiagonal_eigenpairs, tridiagonal_solver, write_csv,
                    write_json)

_MAX_ITERATIONS = 20


class StaticPotential:
    """Static V(x): linear, harmonic or quartic."""

    def __init__(self, fn, params: dict):
        self._fn = fn
        self.params = dict(params)

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    @classmethod
    def linear(cls, A: float) -> "StaticPotential":
        return cls(lambda x: A * x, {"A": A})

    @classmethod
    def harmonic(cls, omega: float, mass: float = 1.0) -> "StaticPotential":
        if omega <= 0:
            raise ValueError("harmonic potential requires omega > 0")
        return cls(lambda x: 0.5 * mass * omega**2 * x**2, {"omega": omega, "mass": mass})

    @classmethod
    def quartic(cls, lam: float) -> "StaticPotential":
        if lam <= 0:
            raise ValueError("quartic potential requires lambda > 0")
        return cls(lambda x: lam * x**4, {"lambda": lam})


@dataclass(frozen=True)
class EigenPair:
    energy: float
    shape: WaveField
    index: int
    residual: float


def _sign_normalize(f: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(f) > 1e-8 * np.max(np.abs(f)))[0]
    if len(nz) and f[nz[0]] < 0:
        return -f
    return f


def lowest_eigenpairs(
    v: StaticPotential, grid: Grid1D, consts: PhysicalConstants, k: int,
) -> list[EigenPair]:
    """k lowest bound states, ascending, trapezoid-normalized, sign-fixed.

    Raises RangeError when k exceeds the grid's n points, AccuracyError
    when a returned mode has not decayed below 1e-6 of its peak at the
    domain edges, and ConvergenceError if the seed eigensolve fails, the
    iteration does not settle, or the refined energies are not distinct
    and ascending. ``residual`` is
    ||(K + M V) f - E M f|| / ||f||.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > grid.n:
        raise RangeError(f"k = {k} modes asked of a grid of n = {grid.n} points")
    dx = grid.dx
    v_x = np.asarray(v(grid.x), dtype=float)
    diag, off = numerov_bands(v_x, dx, consts)
    k_diag, k_off = numerov_bands(0.0, dx, consts)
    try:
        seeds, vectors = tridiagonal_eigenpairs(k_diag + v_x, np.full(grid.n - 1, k_off), k)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc

    # |E_{j+1} - E_j| below this is round-off in the Rayleigh quotient
    settled = 64 * np.finfo(float).eps * (k_diag + np.max(np.abs(v_x)))
    pairs = []
    for i in range(k):
        energy, f = _refine(diag, off, seeds[i], vectors[:, i], settled)
        f = _sign_normalize(f)
        f /= np.sqrt(np.trapezoid(f**2, dx=dx))
        edge = max(abs(f[0]), abs(f[-1]))
        if edge > 1e-6 * np.max(np.abs(f)):
            raise AccuracyError(
                f"mode {i} leaks at the boundary (relative edge value "
                f"{edge / np.max(np.abs(f)):.2e}); widen the domain"
            )
        r = bands_apply(diag, off, f) - energy * bands_apply(M_DIAG, M_OFF, f)
        pairs.append(
            EigenPair(
                energy=energy,
                shape=WaveField(grid=grid, values=f.astype(complex), time=0.0),
                index=i,
                residual=float(np.linalg.norm(r) / np.linalg.norm(f)),
            )
        )
    energies = [p.energy for p in pairs]
    if not np.all(np.diff(energies) > 0):
        raise ConvergenceError(
            f"refined energies {energies} are not distinct and ascending"
        )
    return pairs


def _refine(diag, off, energy, f, settled):
    """Rayleigh-quotient inverse iteration for (K + M V) f = E M f from the
    pair (energy, f); returns the converged (E, f), f of unit 2-norm.

    Each step solves (K + M V - E M) g = M f, which is (H_N - E) g = f, and
    takes E = f.H_N f with H_N f = M^-1 (K + M V) f.
    """
    for _ in range(_MAX_ITERATIONS):
        solve = tridiagonal_solver(diag - energy * M_DIAG, off - energy * M_OFF)
        if solve is not None:
            g = solve(bands_apply(M_DIAG, M_OFF, f), overwrite_b=True)
            f = g / np.linalg.norm(g)
        # None: the shift is an eigenvalue to working precision
        previous, energy = energy, float(f @ m_solve(bands_apply(diag, off, f)))
        if solve is None or abs(energy - previous) <= settled:
            return energy, f
    raise ConvergenceError(
        f"inverse iteration did not settle in {_MAX_ITERATIONS} steps (E ~ {energy})"
    )


def write_eigenpair(pair: EigenPair, csv_path, json_path) -> None:
    """CSV `x,f` plus a JSON sidecar with energy, index and residual."""
    write_csv(csv_path, ("x", "f"), pair.shape.grid.x, pair.shape.values.real)
    write_json(json_path, {"energy": pair.energy, "index": pair.index,
                           "residual": pair.residual})
