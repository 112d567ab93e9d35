"""Spatial grid, wave field and observable primitives.

Every integral between walls is the plain sum dx * sum(.), the inner
product that the Dirichlet step conserves exactly; ``observables`` takes
each as one dot product. Between Dirichlet walls the
Hamiltonian is the sine discrete variable representation (DVR) T + V of
Colbert & Miller (J. Chem. Phys. 96, 1982 (1992)): the grid's n points are
the interior points of a box whose walls lie one dx beyond either end, and
``kinetic_matrix`` is its dense kinetic matrix, shared by the eigensolver
and the propagator, which share its eigenpairs through the memoised
``hamiltonian_eigenpairs``. ``sine_apply`` differentiates the same sine
series by an FFT of its odd extension, for <P>, <H> and the residual
checks; the dense basis stops at ``MAX_DENSE_POINTS``. ``observables``,
``sine_apply`` and ``shift_values`` act along the last axis, so a
(snapshots x n) array is measured in one call, ``BLOCK_ROWS`` rows per
transform. The 5-point weights
``FD5_FIRST`` and ``FD5_SECOND``, spelled here only, serve the masked
(periodic) Airy grids and time series. ``shift_values`` is the one spectral
shift: Fourier interpolation, so that sub-grid displacements are
representable, with a periodic wrap that ``SampledShape.on_grid_shifted``
zeroes. Everything here is numpy only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateFieldError, RangeError


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


@dataclass(frozen=True)
class Observables:
    """Floats for one field; arrays of one value per row for a batch."""

    norm: float
    centroid: float
    momentum_mean: float
    energy_mean: float
    variance: float


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


# the most snapshots one batched transform takes: a transform of k rows
# holds a few complex k x 2(n + 1) temporaries, so memory grows with k
BLOCK_ROWS = 32


def row_blocks(rows: int) -> list:
    """Slices of at most ``BLOCK_ROWS`` consecutive rows covering ``rows``."""
    return [slice(i, min(i + BLOCK_ROWS, rows)) for i in range(0, rows, BLOCK_ROWS)]


def hamiltonian_eigenpairs(grid: Grid1D, v, consts: PhysicalConstants):
    """(E, U) of the sine-DVR Hamiltonian H = T + V on ``grid``, the
    samples ``v`` of V on its diagonal: H = U diag(E) U^T from one dense
    ``numpy.linalg.eigh`` of T + V, E ascending. Memoised on (n, dx,
    consts, the bytes of V), so a run that diagonalises the matrix a mode
    came from reuses its eigenpairs; the arrays are shared, so read-only.
    Raises RangeError past ``MAX_DENSE_POINTS`` before anything n x n is
    allocated."""
    v = np.ascontiguousarray(np.broadcast_to(np.asarray(v, dtype=float), (grid.n,)))
    return _hamiltonian_eigenpairs(_dense_points(grid.n), grid.dx, consts, v.tobytes())


@lru_cache(maxsize=2)
def _hamiltonian_eigenpairs(n: int, dx: float, consts: PhysicalConstants, v: bytes):
    h = kinetic_matrix(n, dx, consts)
    h[np.diag_indices(n)] += np.frombuffer(v)
    energies, vectors = np.linalg.eigh(h)
    energies.flags.writeable = vectors.flags.writeable = False
    return energies, vectors


def _sine_spectrum(values: np.ndarray, dx: float):
    """``numpy.fft`` spectrum of the odd extension (0, v, 0, -v reversed) of
    the n samples along the last axis, one period of 2(n + 1) points, and
    its wavenumbers."""
    n = values.shape[-1]
    ext = np.zeros(values.shape[:-1] + (2 * (n + 1),), dtype=complex)
    ext[..., 1:n + 1] = values
    ext[..., n + 2:] = -values[..., ::-1]
    return np.fft.fft(ext), _wavenumbers(2 * (n + 1), dx, False)


def sine_apply(values: np.ndarray, dx: float, symbol) -> np.ndarray:
    """The operator of Fourier symbol ``symbol(k)`` (d/dx has ik) applied to
    the sine series through ``values`` that vanishes on walls one ``dx``
    beyond either end, at the grid points: one FFT of the odd extension,
    times the symbol, and back; complex. Acts along the last axis; a symbol
    of more than one row broadcasts against the rows of ``values``. The
    symbol must be even or odd in k, so the result is again a sine or a
    cosine series. Spectrally accurate for a field that is smooth and small
    at the walls."""
    spectrum, k = _sine_spectrum(values, dx)
    return np.fft.ifft(symbol(k) * spectrum)[..., 1:values.shape[-1] + 1]


def observables(
    values: np.ndarray, grid: Grid1D, v_of_x: np.ndarray | None = None,
    consts: PhysicalConstants = PhysicalConstants(),
) -> Observables:
    """Norm, <x>, <P>, <H> and spatial variance of the fields ``values``
    on ``grid``: one field of n samples, whose observables are floats, or a
    (snapshots x n) array, whose observables are arrays of one value per
    row, taken ``BLOCK_ROWS`` rows at a time.

    The density re^2 + im^2 is formed once; <x> and the variance are its
    dot products with x and (x - <x>)^2. <P> and the kinetic part of <H>
    are those of the sine series through the points (walls one dx beyond
    either end), from one FFT of its odd extension: <H> is
    <psi|T psi> + <V rho> with T the sine-DVR ``kinetic_matrix``.
    ``v_of_x`` holds potential samples on the grid, one row for all fields
    or one per field; when None the energy is purely kinetic. Raises
    DegenerateFieldError for an (almost) zero field.
    """
    rows = np.atleast_2d(values)
    v_rows = None if v_of_x is None else np.broadcast_to(v_of_x, rows.shape)
    columns = np.empty((5, len(rows)))
    for blk in row_blocks(len(rows)):
        columns[:, blk] = _observables_block(
            rows[blk], grid, None if v_rows is None else v_rows[blk], consts)
    if np.ndim(values) == 1:
        columns = columns[:, 0].tolist()
    return Observables(*columns)


def _observables_block(values, grid, v_of_x, consts) -> tuple:
    """(norm, <x>, <P>, <H>, variance) of each row of ``values``."""
    dx, x = grid.dx, grid.x
    rho = values.real * values.real
    rho += values.imag * values.imag
    nrm2 = dx * rho.sum(axis=-1)
    if np.any(nrm2 < 1e-24):
        raise DegenerateFieldError(f"field norm {np.sqrt(np.min(nrm2)):g} below 1e-12")
    centroid = dx * (rho @ x) / nrm2
    xc = x - centroid[:, None]
    variance = dx * np.vecdot(xc * xc, rho) / nrm2

    # one spectrum of the sine series: <P> = dx sum conj(psi) (-i hbar) psi'
    # with psi' its derivative, and the kinetic sum sum conj(psi) T psi by
    # Parseval over the odd extension's 2(n + 1) points, which hold psi twice
    spectrum, k = _sine_spectrum(values, dx)
    d1 = np.fft.ifft(1j * k * spectrum)[:, 1:grid.n + 1]
    p_mean = consts.hbar * dx * np.vecdot(values, d1).imag / nrm2

    # <H> of T + V, the energy the Dirichlet step conserves
    power = spectrum.real * spectrum.real
    power += spectrum.imag * spectrum.imag
    e_sum = consts.hbar**2 / (2.0 * consts.mass) * (power @ (k * k)) / (2 * len(k))
    if v_of_x is not None:
        e_sum += np.vecdot(v_of_x, rho)
    e_mean = dx * e_sum / nrm2
    return np.sqrt(nrm2), centroid, p_mean, e_mean, variance


def _phases(angle: np.ndarray) -> np.ndarray:
    """exp(i angle), filled by a real cos and sin (about half the cost of a
    complex exp)."""
    phase = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return phase


@lru_cache(maxsize=8)
def _wavenumbers(n: int, dx: float, real: bool) -> np.ndarray:
    """2 pi times the ``numpy.fft`` sample frequencies of an n-point grid:
    the n // 2 + 1 of ``rfft`` when ``real``, else the n of ``fft``.
    Shared by every caller, so read-only."""
    k = 2.0 * np.pi * (np.fft.rfftfreq(n, d=dx) if real else np.fft.fftfreq(n, d=dx))
    k.flags.writeable = False
    return k


def shift_values(values: np.ndarray, a, dx: float) -> np.ndarray:
    """Fourier-interpolated shift: h(x) -> h(x - a), periodic wrap.

    ``values`` is one field of n samples; ``a`` is one shift, which gives n
    samples, or an array of shifts, which gives one row of n per shift,
    ``BLOCK_ROWS`` rows per inverse transform. Real ``values`` take the half
    spectrum (``rfft``/``irfft``) and give real rows; complex ones the full
    spectrum."""
    n = len(values)
    real = not np.iscomplexobj(values)
    a = np.asarray(a, dtype=float)
    k = _wavenumbers(n, dx, real)
    spectrum = np.fft.rfft(values) if real else np.fft.fft(values)
    out = np.empty(a.shape + (n,), dtype=values.dtype if real else complex)
    flat_a, flat_out = a.reshape(-1), out.reshape(-1, n)
    for blk in row_blocks(len(flat_a)):
        phase = _phases(-flat_a[blk, None] * k)
        np.multiply(spectrum, phase, out=phase)
        flat_out[blk] = np.fft.irfft(phase, n) if real else np.fft.ifft(phase)
    return out


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

