"""Bound-state shapes from a static potential.

Solves the time-independent problem on the grid with a 3-point Laplacian
and Dirichlet walls. Eigenvalues come from bisection on the symmetric
tridiagonal matrix and eigenvectors from inverse iteration (LAPACK
stebz/stein via scipy), so only the k lowest pairs are ever formed.

The linear potential V = A x has a continuous spectrum and bypasses the
eigensolver: its shape is the closed-form Airy mode, ``constructor.AiryShape``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import AccuracyError, ConvergenceError
from .grids import Grid1D, PhysicalConstants, WaveField


class StaticPotential:
    """Static V(x): linear, harmonic, quartic, or custom callable."""

    def __init__(self, kind: str, fn, params: dict):
        self.kind = kind
        self._fn = fn
        self.params = dict(params)

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    @classmethod
    def linear(cls, A: float) -> "StaticPotential":
        return cls("linear", lambda x: A * x, {"A": A})

    @classmethod
    def harmonic(cls, omega: float, mass: float = 1.0) -> "StaticPotential":
        if omega <= 0:
            raise ValueError("harmonic potential requires omega > 0")
        return cls(
            "harmonic", lambda x: 0.5 * mass * omega**2 * x**2,
            {"omega": omega, "mass": mass},
        )

    @classmethod
    def quartic(cls, lam: float) -> "StaticPotential":
        if lam <= 0:
            raise ValueError("quartic potential requires lambda > 0")
        return cls("quartic", lambda x: lam * x**4, {"lambda": lam})

    @classmethod
    def custom(cls, fn, name: str = "custom") -> "StaticPotential":
        return cls(name, fn, {})

    @classmethod
    def free(cls) -> "StaticPotential":
        return cls("free", lambda x: np.zeros_like(x), {})


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix as (diagonal, off-diagonal) arrays."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out


@dataclass(frozen=True)
class EigenPair:
    energy: float
    shape: WaveField
    index: int
    residual: float


def build_hamiltonian(
    v: StaticPotential, grid: Grid1D, consts: PhysicalConstants
) -> TridiagonalMatrix:
    """3-point FD Hamiltonian with Dirichlet boundaries (psi = 0 off-grid)."""
    dx = grid.dx
    kin = consts.hbar**2 / (consts.mass * dx**2)
    diag = kin + v(grid.x)
    off = np.full(grid.n - 1, -0.5 * kin)
    return TridiagonalMatrix(diagonal=np.asarray(diag, dtype=float), off_diagonal=off)


def _sign_normalize(f: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(f) > 1e-8 * np.max(np.abs(f)))[0]
    if len(nz) and f[nz[0]] < 0:
        return -f
    return f


def lowest_eigenpairs(
    v: StaticPotential, grid: Grid1D, consts: PhysicalConstants, k: int,
    leak_tol: float = 1e-6,
) -> list[EigenPair]:
    """k lowest bound states, ascending, trapezoid-normalized, sign-fixed.

    Raises AccuracyError when a returned mode has not decayed below
    ``leak_tol`` (relative) at the domain edges, and ConvergenceError if
    LAPACK fails.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = build_hamiltonian(v, grid, consts)
    try:
        energies, vectors = eigh_tridiagonal(
            h.diagonal, h.off_diagonal, select="i", select_range=(0, k - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc

    pairs = []
    for i in range(k):
        f = _sign_normalize(vectors[:, i].copy())
        nrm = np.sqrt(np.trapezoid(f**2, dx=grid.dx))
        f /= nrm
        edge = max(abs(f[0]), abs(f[-1]))
        if edge > leak_tol * np.max(np.abs(f)):
            raise AccuracyError(
                f"mode {i} leaks at the boundary (relative edge value "
                f"{edge / np.max(np.abs(f)):.2e}); widen the domain"
            )
        r = h.matvec(f) - energies[i] * f
        residual = float(np.linalg.norm(r) / np.linalg.norm(f))
        pairs.append(
            EigenPair(
                energy=float(energies[i]),
                shape=WaveField(grid=grid, values=f.astype(complex), time=0.0),
                index=i,
                residual=residual,
            )
        )
    return pairs


def write_eigenpair(pair: EigenPair, csv_path, json_path) -> None:
    """CSV `x,f` plus a JSON sidecar with energy, index and residual."""
    with open(csv_path, "w") as fh:
        fh.write("x,f\n")
        for xi, fi in zip(pair.shape.grid.x, pair.shape.values.real):
            fh.write(f"{xi:.17g},{fi:.17g}\n")
    with open(json_path, "w") as fh:
        json.dump(
            {"energy": pair.energy, "index": pair.index, "residual": pair.residual},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
