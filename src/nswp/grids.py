"""Spatial grid, wave field and observable primitives.

All spatial integrals use the trapezoidal rule; derivatives inside
observables use second-order central differences with one-sided stencils
at the endpoints. Fractional spatial shifts are done by Fourier
interpolation so that sub-grid displacements are representable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

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

    @property
    def x(self) -> np.ndarray:
        # x_min + i*dx exactly; linspace guarantees the endpoints.
        return np.linspace(self.x_min, self.x_max, self.n)

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


def fd3_first(values: np.ndarray, dx: float) -> np.ndarray:
    """3-point central first derivative; 2nd-order one-sided at the ends."""
    return np.gradient(values, dx, edge_order=2)


def _second_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    d2 = np.empty_like(values)
    d2[1:-1] = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / dx**2
    # 2nd-order one-sided stencils at the endpoints
    d2[0] = (2 * values[0] - 5 * values[1] + 4 * values[2] - values[3]) / dx**2
    d2[-1] = (2 * values[-1] - 5 * values[-2] + 4 * values[-3] - values[-4]) / dx**2
    return d2


def fd5_first(values: np.ndarray, dx: float) -> np.ndarray:
    """5-point central first derivative; zero at the two points at each end."""
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
    nrm2 = float(np.trapezoid(rho, dx=dx))
    if nrm2 < 1e-24:
        raise DegenerateFieldError(f"field norm {np.sqrt(nrm2):g} below 1e-12")
    centroid = float(np.trapezoid(x * rho, dx=dx)) / nrm2
    variance = float(np.trapezoid((x - centroid) ** 2 * rho, dx=dx)) / nrm2

    dpsi = fd3_first(psi.values, dx)
    p_mean = float(
        np.trapezoid(np.conj(psi.values) * (-1j * consts.hbar) * dpsi, dx=dx).real
    ) / nrm2

    d2psi = _second_derivative(psi.values, dx)
    h_psi = -(consts.hbar**2) / (2.0 * consts.mass) * d2psi
    if v_of_x is not None:
        h_psi = h_psi + np.asarray(v_of_x) * psi.values
    e_mean = float(np.trapezoid(np.conj(psi.values) * h_psi, dx=dx).real) / nrm2

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


def write_wavefield_csv(psi: WaveField, path) -> None:
    """CSV export with header ``x,re,im`` at full double precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for xi, v in zip(psi.grid.x, psi.values):
            writer.writerow([f"{xi:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])


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
