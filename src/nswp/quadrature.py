"""Adaptive Simpson quadrature, uniform-mesh Simpson sums, mesh-doubled
nested time integrals, and a piecewise-polynomial antiderivative.

Nested integrals (and any other functional of F's samples, such as the
forced-Airy phase) are evaluated on one uniform mesh with cumulative
Simpson antiderivatives; the mesh is doubled until the result is stable
to the requested tolerance, and each doubling samples F only at its new
nodes. Each inner antiderivative is built once per mesh and reused at
every outer node, never re-integrated adaptively.

Everything here is numpy only: importing scipy's integrate or interpolate
packages would load scipy.optimize, scipy.sparse and more, and every
command pays its imports.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError

_MAX_DEPTH = 48
_MAX_MESH = 1 << 20


def _adaptive(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fb + 4.0 * frm + fm)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise AccuracyError(
            f"adaptive Simpson hit depth {depth} on [{a}, {b}]",
            best_estimate=left + right + delta / 15.0,
        )
    return _adaptive(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + _adaptive(
        f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
    )


def integrate_time(f, t0: float, t1: float, tol: float = 1e-12) -> float:
    """Adaptive composite Simpson integral of f over [t0, t1].

    t1 < t0 is allowed and flips the sign. Raises AccuracyError (carrying
    the best estimate) if the recursion depth limit is hit.
    """
    if t1 == t0:
        return 0.0
    if t1 < t0:
        return -integrate_time(f, t1, t0, tol)
    a, b = float(t0), float(t1)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive(f, a, fa, m, fm, b, fb, whole, tol, 0)


def _doubling_meshes(f, t_max: float, n: int):
    """Yield (ts, f(ts)) on the uniform meshes of n, 2n, 4n, ... intervals
    over [0, t_max], up to _MAX_MESH intervals.

    The even nodes of linspace(0, t_max, 2n + 1) are linspace(0, t_max,
    n + 1) bit for bit, so each mesh keeps the previous samples and calls f
    once, on the array of its new odd nodes.
    """
    ts = np.linspace(0.0, t_max, n + 1)
    y = np.asarray(f(ts), dtype=float)
    while True:
        yield ts, y
        n *= 2
        if n > _MAX_MESH:
            return
        ts = np.linspace(0.0, t_max, n + 1)
        finer = np.empty(n + 1)
        finer[::2] = y
        finer[1::2] = f(ts[1::2])
        y = finer


def mesh_doubling(functional, F, t: float, tol: float) -> float:
    """functional(ts, F(ts)) on a uniform mesh ts over [0, t], converged.

    The mesh starts at 64 intervals and doubles until two successive
    results differ by at most tol. F takes an array of times: it is called
    once per mesh, on that mesh's new nodes, so once per node over all
    meshes. Raises AccuracyError (carrying the last result) past _MAX_MESH
    intervals.
    """
    if t == 0.0:
        return 0.0
    prev = None
    for ts, y in _doubling_meshes(F, t, 64):
        result = float(functional(ts, y))
        if prev is not None and abs(result - prev) <= tol:
            return result
        prev = result
    raise AccuracyError(
        f"mesh functional did not stabilize to {tol} by mesh {_MAX_MESH}",
        best_estimate=prev,
    )


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson integral of samples y spaced h apart.

    Needs an odd number of samples (an even number of intervals).
    """
    if len(y) < 3 or len(y) % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd number >= 3 of samples, "
                         f"got {len(y)}")
    return float(np.sum(y[:-2:2] + 4.0 * y[1::2] + y[2::2]) * h / 3.0)


def cumulative_simpson_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of samples y spaced h apart, starting at 0.

    Each interval integrates the quadratic through its two ends and its
    right neighbour, h/12 (5 y0 + 8 y1 - y2); odd intervals and the last
    one use the mirrored form with the left neighbour. This is the
    equal-interval rule of Cartwright (2017), as in scipy's
    ``cumulative_simpson``.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        raise ValueError(f"cumulative Simpson needs at least 3 samples, got {len(y)}")
    right = h / 12.0 * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])  # intervals 0 .. n-2
    left = h / 12.0 * (5.0 * y[2:] + 8.0 * y[1:-1] - y[:-2])   # intervals 1 .. n-1
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2] = right[::2]
    pieces[1::2] = left[::2]
    pieces[-1] = left[-1]
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(pieces, out=out[1:])
    return out


def nested_triple_integral(F, t: float, tol: float = 1e-10) -> float:
    """integral_0^t integral_0^tau integral_0^eta F(s) ds deta dtau.

    F takes an array of times (``mesh_doubling`` samples it a mesh at a
    time)."""

    def triple(ts, y):
        h = ts[1] - ts[0]
        i1 = cumulative_simpson_uniform(y, h)
        i2 = cumulative_simpson_uniform(i1, h)
        return simpson_uniform(i2, h)

    return mesh_doubling(triple, F, t, tol)


# _QUINTIC[k] maps the samples of a 6-point stencil to the power
# coefficients, in u = (t - t_i)/h, of the quintic through them when t_i is
# node k of the stencil. At tol 1e-11 local quintics converge on a mesh 8x
# coarser than local cubics (1024 against 8192 intervals for 0.3 sin 2t on
# [0, 10]).
_STENCIL = np.arange(6)
_QUINTIC = np.stack([np.linalg.inv(np.vander(_STENCIL - k, increasing=True))
                     for k in range(5)])


class PiecewisePolynomial:
    """Piecewise polynomial on the uniform mesh t_i = i h, i = 0 .. n.

    Row i of ``coeffs`` holds the power coefficients of piece i in
    (t - t_i), lowest degree first. The end pieces extend past [0, n h], so
    slightly outside it the callable extrapolates mildly.
    """

    def __init__(self, h: float, coeffs: np.ndarray):
        self.h = float(h)
        self.coeffs = coeffs

    def __call__(self, t):
        """The value at a time t, or at each of an array of times."""
        i = np.clip(np.floor_divide(t, self.h).astype(int), 0, len(self.coeffs) - 1)
        s = t - i * self.h
        acc = 0.0
        for c in self.coeffs[:, ::-1].T:
            acc = acc * s + c[i]
        return acc

    def antiderivative(self) -> "PiecewisePolynomial":
        """The piecewise polynomial of integral_0^t, one degree higher."""
        degree = self.coeffs.shape[1]
        raised = self.coeffs / np.arange(1, degree + 1)
        out = np.empty((len(raised), degree + 1))
        out[:, 1:] = raised
        # piece integrals over [t_i, t_i + h], accumulated into the constants
        whole = raised @ self.h ** np.arange(1, degree + 1)
        out[0, 0] = 0.0
        np.cumsum(whole[:-1], out=out[1:, 0])
        return PiecewisePolynomial(self.h, out)


def piecewise_quintic(y: np.ndarray, h: float) -> PiecewisePolynomial:
    """Piecewise local quintic through samples y spaced h apart.

    Piece i interpolates the six samples i-2 .. i+3; near the ends the
    stencil shifts inward, so it never reaches past the data.
    """
    n = len(y) - 1
    if n < 5:
        raise ValueError(f"need at least 6 samples, got {len(y)}")
    pieces = np.arange(n)
    starts = np.clip(pieces - 2, 0, n - 5)
    coeffs = np.empty((n, 6))
    for k, weights in enumerate(_QUINTIC):
        rows = np.flatnonzero(pieces - starts == k)
        coeffs[rows] = y[starts[rows, None] + _STENCIL] @ weights.T
    return PiecewisePolynomial(h, coeffs / h**_STENCIL)


def cumulative_antiderivative(f, t_max: float, tol: float = 1e-11):
    """Callable I with I(t) ~= integral_0^t f, valid on [0, t_max].

    f takes an array of times: it is sampled once per doubled mesh, on that
    mesh's new nodes.

    Built as the exact antiderivative of the piecewise local quintic
    through f on a uniform mesh (a ``PiecewisePolynomial``), refined by
    doubling until the endpoint value is stable to tol. Mild extrapolation
    slightly outside [0, t_max] is allowed (the end pieces extend). The
    returned callable takes a time or an array of times; its
    ``antiderivative()`` gives the next integral up.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    prev = None
    for ts, y in _doubling_meshes(f, t_max, 256):
        anti = piecewise_quintic(y, t_max / (len(ts) - 1)).antiderivative()
        end = anti(t_max)
        # tolerance is relative for large integrals, else pure round-off in
        # the piece sums can keep the endpoint jittering above tol
        if prev is not None and abs(end - prev) <= tol * max(1.0, abs(end)):
            return anti
        prev = end
    raise AccuracyError(
        f"cumulative antiderivative did not stabilize to {tol}", best_estimate=prev
    )
