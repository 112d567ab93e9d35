"""Adaptive Simpson quadrature, mesh-doubled nested time integrals, and a
cubic-spline antiderivative.

Nested integrals (and any other functional of F's samples, such as the
forced-Airy phase) are evaluated on one uniform mesh with cumulative
Simpson antiderivatives; the mesh is doubled until the result is stable
to the requested tolerance. Each inner antiderivative is built once per
mesh and reused at every outer node, never re-integrated adaptively.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicSpline

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


def mesh_doubling(functional, F, t: float, tol: float) -> float:
    """functional(ts, F(ts)) on a uniform mesh ts over [0, t], converged.

    F is sampled once per mesh; the mesh starts at 64 intervals and doubles
    until two successive results differ by at most tol. Raises
    AccuracyError (carrying the last result) past _MAX_MESH intervals.
    """
    if t == 0.0:
        return 0.0
    n = 64
    prev = None
    while n <= _MAX_MESH:
        ts = np.linspace(0.0, t, n + 1)
        y = np.asarray([F(ti) for ti in ts], dtype=float)
        result = float(functional(ts, y))
        if prev is not None and abs(result - prev) <= tol:
            return result
        prev = result
        n *= 2
    raise AccuracyError(
        f"mesh functional did not stabilize to {tol} by mesh {_MAX_MESH}",
        best_estimate=prev,
    )


def nested_triple_integral(F, t: float, tol: float = 1e-10) -> float:
    """integral_0^t integral_0^tau integral_0^eta F(s) ds deta dtau."""

    def triple(ts, y):
        i1 = cumulative_simpson(y, x=ts, initial=0.0)
        i2 = cumulative_simpson(i1, x=ts, initial=0.0)
        return simpson(i2, x=ts)

    return mesh_doubling(triple, F, t, tol)


def cumulative_antiderivative(f, t_max: float, tol: float = 1e-11):
    """Smooth callable I with I(t) ~= integral_0^t f, valid on [0, t_max].

    Built as the exact antiderivative of a cubic spline through f on a fine
    mesh, refined by doubling until the endpoint value is stable to tol.
    Mild extrapolation slightly outside [0, t_max] is allowed (the spline
    extends its end cubics).
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    n = 256
    prev = None
    while n <= _MAX_MESH:
        ts = np.linspace(0.0, t_max, n + 1)
        y = np.asarray([f(ti) for ti in ts], dtype=float)
        anti = CubicSpline(ts, y).antiderivative()
        end = float(anti(t_max))
        # tolerance is relative for large integrals, else pure round-off in
        # the spline assembly can keep the endpoint jittering above tol
        if prev is not None and abs(end - prev) <= tol * max(1.0, abs(end)):
            return anti
        prev = end
        n *= 2
    raise AccuracyError(
        f"cumulative antiderivative did not stabilize to {tol}", best_estimate=prev
    )
