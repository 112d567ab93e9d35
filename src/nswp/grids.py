"""Spatial grid, wave field and observable primitives.

``observables`` takes its integrals as plain sums dx * sum(.), each one
dot product, the inner product that the propagator's (2,2) Pade step
conserves exactly; ``inner_product`` uses the trapezoidal rule. The
Hamiltonian is the fourth-order matrix Numerov operator H_N = M^-1 K + V
(Pillai, Goglio & Walker, Am. J. Phys. 80, 1017 (2012)), with K the 3-point
kinetic matrix and M = tridiag(1, 10, 1)/12, both with Dirichlet walls;
``numerov_bands`` is the one builder of its bands, shared by the
eigensolver, both stages of the Pade step and <H>; ``tridiagonal_solver``
solves with all of them. <P> uses the 5-point first derivative; the 5-point
weights ``FD5_FIRST`` and ``FD5_SECOND`` are spelled here only. Fractional
spatial shifts are done by Fourier interpolation so that sub-grid
displacements are representable.
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
        if not np.isfinite(values).all():
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


# 5-point central difference weights at offsets -2..2: the first derivative
# is sum_k FD5_FIRST[k] h_{i+k-2} / (FD5_DIVISOR dx), the second
# sum_k FD5_SECOND[k] h_{i+k-2} / (FD5_DIVISOR dx^2)
FD5_FIRST = (1.0, -8.0, 0.0, 8.0, -1.0)
FD5_SECOND = (-1.0, 16.0, -30.0, 16.0, -1.0)
FD5_DIVISOR = 12.0


def _fd5(values: np.ndarray, weights, scale: float) -> np.ndarray:
    """sum_k weights[k] values[i+k-2] / scale along the first axis, term by
    term from offset -2; zero at the two points at each end."""
    n = len(values)
    out = np.zeros_like(values)
    acc = out[2:-2]
    for k, w in enumerate(weights):
        if w:
            acc += w * values[k:n - 4 + k]
    acc /= scale
    return out


def fd5_first(values: np.ndarray, dx: float) -> np.ndarray:
    """5-point central first derivative along the first axis; zero at the two
    points at each end."""
    return _fd5(values, FD5_FIRST, FD5_DIVISOR * dx)


def fd5_second(values: np.ndarray, dx: float) -> np.ndarray:
    """5-point central second derivative; zero at the two points at each end."""
    return _fd5(values, FD5_SECOND, FD5_DIVISOR * dx**2)


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

    The density re^2 + im^2 is formed once; <x> and the variance are its
    dot products with x and (x - <x>)^2. <P> is four ``vdot``s of the points
    with a 5-point difference against their shifted neighbours, so no
    derivative array is built; <H> is the Numerov expectation
    <psi|M^-1 K psi> + <V rho>. ``v_of_x`` holds potential samples on the
    grid; when None the energy is purely kinetic. Raises
    DegenerateFieldError for an (almost) zero field.
    """
    dx = psi.grid.dx
    x = psi.grid.x
    values = psi.values
    rho = values.real * values.real
    rho += values.imag * values.imag
    nrm2 = dx * float(rho.sum())
    if nrm2 < 1e-24:
        raise DegenerateFieldError(f"field norm {np.sqrt(nrm2):g} below 1e-12")
    centroid = dx * float(np.dot(x, rho)) / nrm2
    xc = x - centroid
    variance = dx * float(np.dot(xc * xc, rho)) / nrm2

    # dx * sum conj(psi) (-i hbar) psi' with psi' the 5-point difference,
    # which is zero at the two points at each end
    n = len(values)
    inner = values[2:-2]
    s = sum(w * np.vdot(inner, values[k:n - 4 + k]) for k, w in enumerate(FD5_FIRST) if w)
    p_mean = consts.hbar * float(s.imag) / (FD5_DIVISOR * nrm2)

    # <H> of the Numerov Hamiltonian, the energy the Pade step conserves
    k_psi = m_solve(bands_apply(*numerov_bands(0.0, dx, consts), values))
    e_sum = float(np.vdot(values, k_psi).real)
    if v_of_x is not None:
        e_sum += float(np.dot(v_of_x, rho))
    e_mean = dx * e_sum / nrm2

    return Observables(
        norm=float(np.sqrt(nrm2)),
        centroid=centroid,
        momentum_mean=p_mean,
        energy_mean=e_mean,
        variance=variance,
    )


@lru_cache(maxsize=8)
def _wavenumbers(n: int, dx: float, real: bool) -> np.ndarray:
    """2 pi times the ``numpy.fft`` sample frequencies of an n-point grid:
    the n // 2 + 1 of ``rfft`` when ``real``, else the n of ``fft``.
    Shared by every caller, so read-only."""
    k = 2.0 * np.pi * (np.fft.rfftfreq(n, d=dx) if real else np.fft.fftfreq(n, d=dx))
    k.flags.writeable = False
    return k


def shift_values(values: np.ndarray, a: float, dx: float) -> np.ndarray:
    """Fourier-interpolated shift: h(x) -> h(x - a), periodic wrap.

    Real ``values`` take the half spectrum (``rfft``/``irfft``) and give a
    real array; complex ones the full spectrum. The phase exp(-i k a) is
    filled by a real cos and sin."""
    n = len(values)
    real = not np.iscomplexobj(values)
    angle = -a * _wavenumbers(n, dx, real)
    phase = np.empty(len(angle), dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    if real:
        return np.fft.irfft(np.fft.rfft(values) * phase, n)
    return np.fft.ifft(np.fft.fft(values) * phase)


def shift_field(psi: WaveField, a: float) -> WaveField:
    """Return samples of psi(x - a) via band-limited interpolation.

    Values leaving the domain wrap around periodically; the caller must
    ensure the field has negligible support near the boundaries. A purely
    real field is shifted as real, so it stays real.
    """
    if abs(a) >= psi.grid.width:
        raise RangeError(f"shift {a} exceeds domain width {psi.grid.width}")
    if a == 0.0:
        return psi
    values = psi.values if np.any(psi.values.imag) else psi.values.real
    return WaveField(grid=psi.grid, values=shift_values(values, a, psi.grid.dx),
                     time=psi.time)


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
