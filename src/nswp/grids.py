"""Spatial grid, wave field and observable primitives.

``observables`` takes its integrals as plain sums dx * sum(.), each one
dot product, the inner product that the Dirichlet step conserves exactly;
``inner_product`` uses the trapezoidal rule. Between Dirichlet walls the
Hamiltonian is the sine discrete variable representation (DVR) T + V of
Colbert & Miller (J. Chem. Phys. 96, 1982 (1992)): the grid's n points are
the interior points of a box whose walls lie one dx beyond either end, and
``kinetic_matrix`` is its dense kinetic matrix, shared by the eigensolver
and the propagator. ``sine_apply`` differentiates the same sine series by
an FFT of its odd extension, for <P>, <H> and the residual checks; the
dense basis stops at ``MAX_DENSE_POINTS``. The 5-point weights
``FD5_FIRST`` and ``FD5_SECOND``, spelled here only, serve the masked
(periodic) Airy grids and time series. Fractional spatial shifts are done by
Fourier interpolation so that sub-grid displacements are representable.
Everything here is numpy only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def interior(grid: Grid1D, margin: float) -> slice:
    """The points at least ``margin``, a length in x, from either edge; a
    margin of a whole number of cells, up to round-off, keeps that many
    cells out. Raises RangeError when no point is left."""
    cells = max(0, math.ceil(margin / grid.dx - 1e-9))
    if 2 * cells >= grid.n:
        raise RangeError(f"a margin of {margin:g} leaves no point of a grid "
                         f"{grid.width:g} wide")
    return slice(cells, grid.n - cells)


# the most points a dense n x n Hamiltonian is built for: 32 MB per real matrix
MAX_DENSE_POINTS = 2048


def _dense_points(n: int) -> int:
    """``n``, or RangeError when an n x n matrix would pass MAX_DENSE_POINTS."""
    if n > MAX_DENSE_POINTS:
        raise RangeError(f"a dense basis of n = {n} points exceeds the cap of "
                         f"{MAX_DENSE_POINTS}; use fewer points")
    return n


def kinetic_matrix(n: int, dx: float, consts: PhysicalConstants) -> np.ndarray:
    """The n x n sine-DVR kinetic matrix of an n-point grid between walls one
    ``dx`` beyond its ends (Colbert & Miller, J. Chem. Phys. 96, 1982 (1992),
    their particle-in-a-box DVR with N = n + 1 intervals of a box
    L = N dx long): with c = hbar^2 pi^2 / (4 m L^2),
    T_ii = c [(2 N^2 + 1) / 3 - 1 / sin^2(pi i / N)] and
    T_ij = c (-1)^(i - j) [1 / sin^2(pi (i - j) / 2N) - 1 / sin^2(pi (i + j) / 2N)].
    It is ``sine_apply`` with the symbol hbar^2 k^2 / 2m. Raises RangeError
    past ``MAX_DENSE_POINTS`` before anything n x n is allocated."""
    big_n = _dense_points(n) + 1
    c = consts.hbar**2 * np.pi**2 / (4.0 * consts.mass * (big_n * dx) ** 2)
    i = np.arange(1, n + 1)
    diff = i[:, None] - i
    angle = (np.pi / (2 * big_n)) * diff
    np.fill_diagonal(angle, 1.0)  # any nonzero angle; the diagonal is set below
    t = 1.0 / np.sin(angle) ** 2
    t -= 1.0 / np.sin((np.pi / (2 * big_n)) * (i[:, None] + i)) ** 2
    t[diff % 2 == 1] *= -1.0
    np.fill_diagonal(t, (2 * big_n**2 + 1) / 3.0 - 1.0 / np.sin(np.pi * i / big_n) ** 2)
    t *= c
    return t


def _sine_spectrum(values: np.ndarray, dx: float):
    """``numpy.fft`` spectrum of the odd extension (0, v, 0, -v reversed) of
    n samples, one period of 2(n + 1) points, and its wavenumbers."""
    n = len(values)
    ext = np.zeros(2 * (n + 1), dtype=complex)
    ext[1:n + 1] = values
    ext[n + 2:] = -values[::-1]
    return np.fft.fft(ext), _wavenumbers(2 * (n + 1), dx, False)


def sine_apply(values: np.ndarray, dx: float, symbol) -> np.ndarray:
    """The operator of Fourier symbol ``symbol(k)`` (d/dx has ik) applied to
    the sine series through ``values`` that vanishes on walls one ``dx``
    beyond either end, at the grid points: one FFT of the odd extension,
    times the symbol, and back; complex. The symbol must be even or odd in
    k, so the result is again a sine or a cosine series. Spectrally
    accurate for a field that is smooth and small at the walls."""
    spectrum, k = _sine_spectrum(values, dx)
    return np.fft.ifft(symbol(k) * spectrum)[1:len(values) + 1]


def observables(
    psi: WaveField, v_of_x: np.ndarray | None = None,
    consts: PhysicalConstants = PhysicalConstants(),
) -> Observables:
    """Norm, <x>, <P>, <H> and spatial variance of a field.

    The density re^2 + im^2 is formed once; <x> and the variance are its
    dot products with x and (x - <x>)^2. <P> and the kinetic part of <H>
    are those of the sine series through the points (walls one dx beyond
    either end), from one FFT of its odd extension: <H> is
    <psi|T psi> + <V rho> with T the sine-DVR ``kinetic_matrix``.
    ``v_of_x`` holds potential samples on the grid; when None the energy is
    purely kinetic. Raises DegenerateFieldError for an (almost) zero field.
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

    # one spectrum of the sine series: <P> = dx sum conj(psi) (-i hbar) psi'
    # with psi' its derivative, and the kinetic sum sum conj(psi) T psi by
    # Parseval over the odd extension's 2(n + 1) points, which hold psi twice
    spectrum, k = _sine_spectrum(values, dx)
    d1 = np.fft.ifft(1j * k * spectrum)[1:len(values) + 1]
    p_mean = consts.hbar * dx * float(np.vdot(values, d1).imag) / nrm2

    # <H> of T + V, the energy the Dirichlet step conserves
    power = spectrum.real * spectrum.real
    power += spectrum.imag * spectrum.imag
    e_sum = consts.hbar**2 / (2.0 * consts.mass) * float(np.dot(k * k, power)) / (2 * len(k))
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

