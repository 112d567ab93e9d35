"""Bound-state shapes from a static potential.

Solves the time-independent problem on the grid between Dirichlet walls in
the sine discrete variable representation: the dense Hamiltonian
T + V, T the Colbert-Miller kinetic matrix (``grids.kinetic_matrix``), is
diagonalised by one ``numpy.linalg.eigh`` (``grids.hamiltonian_eigenpairs``,
which the propagator shares). The modes converge spectrally in
the number of points, so a few points per oscillation of the highest mode
resolve it; the dense basis stops at ``grids.MAX_DENSE_POINTS``.

The linear potential V = A x has a continuous spectrum and bypasses the
eigensolver: its shape is the closed-form Airy mode, ``constructor.AiryShape``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConvergenceError, RangeError
from .grids import (Grid1D, PhysicalConstants, WaveField, _dense_points, hamiltonian_eigenpairs,
                    sine_apply, write_csv, write_json)


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
    """k lowest bound states, ascending, sign-fixed, normalized to dx sum f^2 = 1.

    The modes of the sine-DVR Hamiltonian T + V (``grids.kinetic_matrix``)
    from one dense ``numpy.linalg.eigh`` (``grids.hamiltonian_eigenpairs``).
    Raises RangeError when k exceeds the grid's n points or n exceeds
    ``grids.MAX_DENSE_POINTS`` (before V is sampled), AccuracyError when a
    returned mode has not decayed below 1e-6 of its peak at the domain
    edges, and ConvergenceError if the eigensolve fails or the energies are
    not distinct and ascending.
    ``residual`` is ||(T + V) f - E f|| / ||f||, with T f the sine series'
    ``grids.sine_apply`` of the symbol hbar^2 k^2 / 2m.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > grid.n:
        raise RangeError(f"k = {k} modes asked of a grid of n = {grid.n} points")
    _dense_points(grid.n)  # before V is sampled
    v_samples = np.asarray(v(grid.x), dtype=float)
    try:
        energies, vectors = hamiltonian_eigenpairs(grid, v_samples, consts)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from exc
    energies = [float(e) for e in energies[:k]]
    if not np.all(np.diff(energies) > 0):
        raise ConvergenceError(f"energies {energies} are not distinct and ascending")

    def kinetic(wavenumber):
        return consts.hbar**2 / (2.0 * consts.mass) * wavenumber**2

    pairs = []
    for i, energy in enumerate(energies):
        f = _sign_normalize(vectors[:, i])
        f = f / np.sqrt(grid.dx * (f @ f))
        edge = max(abs(f[0]), abs(f[-1]))
        if edge > 1e-6 * np.max(np.abs(f)):
            raise AccuracyError(
                f"mode {i} leaks at the boundary (relative edge value "
                f"{edge / np.max(np.abs(f)):.2e}); widen the domain"
            )
        pairs.append(
            EigenPair(
                energy=energy,
                shape=WaveField(grid=grid, values=f.astype(complex), time=0.0),
                index=i,
                residual=float(np.linalg.norm(sine_apply(f, grid.dx, kinetic).real
                                              + (v_samples - energy) * f)
                               / np.linalg.norm(f)),
            )
        )
    return pairs


def write_eigenpair(pair: EigenPair, csv_path, json_path) -> None:
    """CSV `x,f` plus a JSON sidecar with energy, index and residual."""
    write_csv(csv_path, ("x", "f"), pair.shape.grid.x, pair.shape.values.real)
    write_json(json_path, {"energy": pair.energy, "index": pair.index,
                           "residual": pair.residual})
