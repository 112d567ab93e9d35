"""Spatial grid, wave field and observable primitives.

``observables`` takes its integrals as plain sums dx * sum(.), the inner
product that the propagator's (2,2) Pade step conserves exactly;
``inner_product`` and ``norm`` use the trapezoidal rule. The Hamiltonian is
the fourth-order matrix Numerov operator H_N = M^-1 K + V (Pillai, Goglio &
Walker, Am. J. Phys. 80, 1017 (2012)), with K the 3-point kinetic matrix
and M = tridiag(1, 10, 1)/12, both with Dirichlet walls; ``numerov_bands``
is the one builder of its bands, shared by the eigensolver, both stages of
the Pade step and <H>; ``tridiagonal_solver`` solves with all of them. <P>
uses the 5-point first derivative. Fractional spatial shifts are done by
Fourier interpolation so that sub-grid displacements are representable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, zgttrf, zgttrs

from .errors import DegenerateFieldError, GridMismatchError, RangeError


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` points spanning ``[x_min, x_max]`` inclusive."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if self.n < 8:
            raise ValueError(f"need at least 8 grid points, got {self.n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        # x_min + i*dx exactly; linspace guarantees the endpoints. Built once
        # per grid and shared by every caller, so it is read-only.
        x = np.linspace(self.x_min, self.x_max, self.n)
        x.flags.writeable = False
        return x

    @property
    def width(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and particle mass, both strictly positive. Natural units by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")


@dataclass(frozen=True)
class WaveField:
    """Complex samples of a wave function on a grid at one instant."""

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid with n={self.grid.n}"
            )
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("wave field contains non-finite samples")
        object.__setattr__(self, "values", values)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class Observables:
    norm: float
    centroid: float
    momentum_mean: float
    energy_mean: float
    variance: float


def inner_product(a: WaveField, b: WaveField) -> complex:
    """Trapezoidal <a|b> = integral of conj(a)*b dx. Grids must match."""
    if a.grid != b.grid:
        raise GridMismatchError("inner_product requires identical grids")
    return complex(np.trapezoid(np.conj(a.values) * b.values, dx=a.grid.dx))


def norm(psi: WaveField) -> float:
    return float(np.sqrt(inner_product(psi, psi).real))


def fd5_first(values: np.ndarray, dx: float) -> np.ndarray:
    """5-point central first derivative along the first axis; zero at the two
    points at each end."""
    out = np.zeros_like(values)
    out[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * dx)
    return out


def fd5_second(values: np.ndarray, dx: float) -> np.ndarray:
    """5-point central second derivative; zero at the two points at each end."""
    out = np.zeros_like(values)
    out[2:-2] = (
        -values[:-4] + 16 * values[1:-3] - 30 * values[2:-2] + 16 * values[3:-1] - values[4:]
    ) / (12 * dx**2)
    return out


# bands of the Numerov matrix M = tridiag(1, 10, 1) / 12
M_DIAG = 10.0 / 12.0
M_OFF = 1.0 / 12.0


def numerov_bands(v, dx: float, consts: PhysicalConstants):
    """Bands ``(diag, off)`` of K + M V, the Numerov Hamiltonian times M.

    diag_i = hbar^2/(m dx^2) + 10 V_i/12 and off_i = -hbar^2/(2 m dx^2) + V_i/12.
    Row i of K + M V is (off_{i-1}, diag_i, off_{i+1}): ``off[:-1]`` is the
    sub-diagonal and ``off[1:]`` the super-diagonal. ``v = 0`` gives K alone
    (as scalars); M's bands are ``M_DIAG`` and ``M_OFF``.
    """
    kin = consts.hbar**2 / (consts.mass * dx**2)
    v = np.asarray(v, dtype=float)
    return kin + M_DIAG * v, M_OFF * v - 0.5 * kin


def bands_apply(diag, off, values: np.ndarray) -> np.ndarray:
    """Product of the tridiagonal matrix with bands ``(diag, off)`` (laid out
    as in :func:`numerov_bands`) and ``values``."""
    w = off * values
    out = diag * values
    out[:-1] += w[1:]
    out[1:] += w[:-1]
    return out


def tridiagonal_solver(diag, off):
    """``b -> A^-1 b`` for the tridiagonal A with bands ``(diag, off)`` laid out
    as in :func:`numerov_bands`, or None if A is exactly singular. A is
    LU-factored once by LAPACK gttrf, real or complex as the bands are; each
    solve is one gttrs, in place on ``b`` when ``overwrite_b``."""
    dtype = complex if np.iscomplexobj(diag) or np.iscomplexobj(off) else float
    gttrf, gttrs = (zgttrf, zgttrs) if dtype is complex else (dgttrf, dgttrs)
    off = np.broadcast_to(np.asarray(off, dtype=dtype), np.shape(diag))
    # gttrf overwrites its inputs: the sub- and super-diagonal must not share memory
    *lu, info = gttrf(off[:-1].copy(), np.array(diag, dtype=dtype), off[1:].copy(),
                      overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info < 0:
        raise ValueError(f"gttrf rejected argument {-info}")

    def solve(b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        x, info = gttrs(*lu, b, overwrite_b=overwrite_b)
        if info != 0:
            raise ValueError(f"gttrs rejected argument {-info}")
        return x

    return solve if info == 0 else None  # info > 0: a zero pivot


def tridiagonal_eigenpairs(diag, sub, k: int):
    """k lowest (eigenvalues, eigenvector columns) of the symmetric tridiagonal
    matrix with ``diag`` and n - 1 ``sub``; LAPACK stebz/stein form only those."""
    return eigh_tridiagonal(diag, sub, select="i", select_range=(0, k - 1))


@lru_cache(maxsize=8)
def _m_solver(n: int, dtype: type):
    return tridiagonal_solver(np.full(n, M_DIAG, dtype=dtype), M_OFF)


def m_solve(values: np.ndarray) -> np.ndarray:
    """M^-1 values by M's LU factors in the dtype of ``values``, built once per
    grid size (M is strictly diagonally dominant, so never singular)."""
    return _m_solver(len(values), complex if np.iscomplexobj(values) else float)(values)


def observables(
    psi: WaveField, v_of_x: np.ndarray | None = None,
    consts: PhysicalConstants = PhysicalConstants(),
) -> Observables:
    """Norm, <x>, <P>, <H> and spatial variance of a field.

    ``v_of_x`` holds potential samples on the grid; when None the energy is
    purely kinetic. Raises DegenerateFieldError for an (almost) zero field.
    """
    dx = psi.grid.dx
    x = psi.grid.x
    rho = psi.density()
    nrm2 = dx * float(np.sum(rho))
    if nrm2 < 1e-24:
        raise DegenerateFieldError(f"field norm {np.sqrt(nrm2):g} below 1e-12")
    centroid = dx * float(np.sum(x * rho)) / nrm2
    variance = dx * float(np.sum((x - centroid) ** 2 * rho)) / nrm2

    dpsi = fd5_first(psi.values, dx)
    p_mean = dx * float(
        np.sum(np.conj(psi.values) * (-1j * consts.hbar) * dpsi).real
    ) / nrm2

    # <H> of the Numerov Hamiltonian, the energy the Pade step conserves
    h_psi = m_solve(bands_apply(*numerov_bands(0.0, dx, consts), psi.values))
    if v_of_x is not None:
        h_psi = h_psi + np.asarray(v_of_x) * psi.values
    e_mean = dx * float(np.sum(np.conj(psi.values) * h_psi).real) / nrm2

    return Observables(
        norm=float(np.sqrt(nrm2)),
        centroid=centroid,
        momentum_mean=p_mean,
        energy_mean=e_mean,
        variance=variance,
    )


def shift_values(values: np.ndarray, a: float, dx: float) -> np.ndarray:
    """Fourier-interpolated shift: h(x) -> h(x - a), periodic wrap."""
    n = len(values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * k * a))


def shift_field(psi: WaveField, a: float) -> WaveField:
    """Return samples of psi(x - a) via band-limited interpolation.

    Values leaving the domain wrap around periodically; the caller must
    ensure the field has negligible support near the boundaries.
    """
    if abs(a) >= psi.grid.width:
        raise RangeError(f"shift {a} exceeds domain width {psi.grid.width}")
    if a == 0.0:
        return psi
    shifted = shift_values(psi.values, a, psi.grid.dx)
    if np.max(np.abs(psi.values.imag)) == 0.0:
        # purely real input stays real up to FFT round-off
        shifted = shifted.real.astype(complex)
    return WaveField(grid=psi.grid, values=shifted, time=psi.time)


def write_csv(path, header, *columns) -> None:
    """One row per sample of the equal-length ``columns`` under the ``header``
    names, each value as ``.17g`` (a double round-trips), with LF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_wavefield_csv(psi: WaveField, path) -> None:
    """CSV export with header ``x,re,im`` at full double precision."""
    write_csv(path, ("x", "re", "im"), psi.grid.x, psi.values.real, psi.values.imag)


def write_json(path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys. Strict: a NaN or inf
    raises ValueError before anything is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_wavefield_csv(path, time: float = 0.0) -> WaveField:
    """Read a field written by :func:`write_wavefield_csv`."""
    xs, res, ims = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["x", "re", "im"]:
            raise ValueError(f"unexpected wavefield CSV header: {header}")
        for row in reader:
            xs.append(float(row[0]))
            res.append(float(row[1]))
            ims.append(float(row[2]))
    grid = Grid1D(x_min=xs[0], x_max=xs[-1], n=len(xs))
    return WaveField(grid=grid, values=np.array(res) + 1j * np.array(ims), time=time)
