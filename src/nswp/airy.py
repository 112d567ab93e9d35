"""The Airy function Ai, evaluated in three regions of the real line.

- x <= -10: the oscillatory asymptotic expansion, DLMF 9.7.9,
  Ai(-z) = pi^-1/2 z^-1/4 [cos(zeta - pi/4) sum_k (-1)^k u_2k zeta^-2k
  + sin(zeta - pi/4) sum_k (-1)^k u_2k+1 zeta^-2k-1], zeta = (2/3) z^3/2,
  with 12 terms in each sum.
- x >= 8: the exponential asymptotic expansion, DLMF 9.7.5,
  Ai(x) = e^-zeta (2 sqrt(pi) x^1/4)^-1 sum_k (-1)^k u_k zeta^-k, with 20
  terms. Once e^-zeta underflows (x above about 108) the value is exactly 0.
- in between: a Taylor table. Its 73 nodes x0 lie every 0.25 on [-10, 8];
  a point is evaluated from its nearest node by Horner in s = x - x0,
  |s| <= 0.125, to degree 16. The coefficients follow from the Airy
  equation Ai'' = x Ai, (n+2)(n+1) a_n+2 = x0 a_n + a_n-1, given
  a_0 = Ai(x0) and a_1 = Ai'(x0). Those start at x = 8 from DLMF 9.7.5 and
  9.7.6 and are carried leftward node by node through the table's own
  polynomials. Ai grows leftward there, so the stepping is stable.

The coefficients are u_0 = 1, u_k = u_k-1 (6k-5)(6k-3)(6k-1) / ((2k-1) 216 k)
and v_k = -(6k+1) / (6k-1) u_k (DLMF 9.7.2). Against 40-digit references
the error is at most about 4e-14 of the envelope |x|^-1/4 / sqrt(pi) on the
left tail and about 4e-14 relative on the right, as with scipy there; the
table builds in about 1.5 ms at import and reads within about 3e-14 of
that scale (Ai itself for x > 0) from scipy.special.airy over -10 < x < 8.
The phase zeta carries a rounding error of about 1e-16 zeta, so the left
tail loses digits as |x| grows; below x = -1e4 (zeta ~ 6.7e5, about 10
digits left in either method) ``RangeError`` is raised.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RangeError

# Cut points, measured on a 2-core x86 machine (numpy 2.4, scipy 1.17): the
# table costs about 0.08 us per point, against 0.09-0.7 us for
# scipy.special.airy; past the cuts the expansions cost about 0.07 (left)
# and 0.04 us (right), against 2.5-5 us for scipy. At x = 8 the first
# omitted term of the right sum is 5e-14 of Ai (3e-14 seen), and the table
# starts from there; at x = -10 the first omitted left terms are 4e-18 of
# the envelope. Further out, the rounding of zeta sets the error.
_LEFT_CUT = -10.0
_RIGHT_CUT = 8.0
_X_MIN = -1e4
# Ai(x) is subnormal from x = 104 and rounds to 0 from x = 108; clipping x at
# 200 (zeta = 1886) makes e^-zeta exactly 0 for every larger x and keeps
# x sqrt(x) finite for every float.
_X_CLIP = 200.0
_N_LEFT = 12
_N_RIGHT = 20
_STEP = 0.25
_DEGREE = 16


def _asymptotic_coefficients(n: int) -> list[float]:
    """u_0 .. u_n-1, each the correctly rounded quotient of two exact ints."""
    num, den, u = 1, 1, []
    for k in range(n):
        if k:
            num *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
            den *= (2 * k - 1) * 216 * k
        u.append(num / den)
    return u


_U = _asymptotic_coefficients(2 * _N_LEFT)
_EVEN = [(-1) ** k * _U[2 * k] for k in range(_N_LEFT)]
_ODD = [(-1) ** k * _U[2 * k + 1] for k in range(_N_LEFT)]
_ALTERNATING = [(-1) ** k * _U[k] for k in range(_N_RIGHT)]
_ALTERNATING_V = [(-1) ** (k + 1) * (6 * k + 1) / (6 * k - 1) * _U[k]
                  for k in range(_N_RIGHT)]


def _horner(coeffs: list[float], w: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] w^k."""
    p = np.full_like(w, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p *= w
        p += c
    return p


def _ai_left(x: np.ndarray) -> np.ndarray:
    z = -x
    zeta = (2.0 / 3.0) * z * np.sqrt(z)
    inv = 1.0 / zeta
    w = inv * inv
    phase = zeta - 0.25 * math.pi
    return ((np.cos(phase) * _horner(_EVEN, w)
             + np.sin(phase) * inv * _horner(_ODD, w))
            / (math.sqrt(math.pi) * np.sqrt(np.sqrt(z))))


def _ai_right(x: np.ndarray) -> np.ndarray:
    x = np.minimum(x, _X_CLIP)
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    return (np.exp(-zeta) * _horner(_ALTERNATING, 1.0 / zeta)
            / (2.0 * math.sqrt(math.pi) * np.sqrt(np.sqrt(x))))


def _taylor_coefficients(x0: float, ai: float, aip: float) -> list[float]:
    """a_0 .. a_DEGREE of Ai about x0 from Ai(x0), Ai'(x0) and Ai'' = x Ai."""
    a = [ai, aip, 0.5 * x0 * ai]
    for n in range(1, _DEGREE - 1):
        a.append((x0 * a[n] + a[n - 1]) / ((n + 2) * (n + 1)))
    return a


def _taylor_table() -> np.ndarray:
    """Row k holds a_k at every node, from x = -10 to x = 8."""
    zeta = (2.0 / 3.0) * _RIGHT_CUT * math.sqrt(_RIGHT_CUT)
    ai = float(_ai_right(np.array(_RIGHT_CUT)))
    aip = float(-math.exp(-zeta) * _RIGHT_CUT ** 0.25 / (2.0 * math.sqrt(math.pi))
                * _horner(_ALTERNATING_V, np.array(1.0 / zeta)))
    n_nodes = round((_RIGHT_CUT - _LEFT_CUT) / _STEP) + 1
    per_node = []
    for i in range(n_nodes - 1, -1, -1):
        a = _taylor_coefficients(_LEFT_CUT + i * _STEP, ai, aip)
        per_node.append(a)
        # Ai and Ai' at the next node to the left
        ai = sum(c * (-_STEP) ** n for n, c in enumerate(a))
        aip = sum(n * c * (-_STEP) ** (n - 1) for n, c in enumerate(a) if n)
    table = np.array(per_node[::-1]).T
    table.flags.writeable = False
    return table


_TABLE = _taylor_table()


def _ai_middle(x: np.ndarray) -> np.ndarray:
    """Horner about the nearest node; x - node is exact for -10 < x < 8."""
    node = np.rint((x - _LEFT_CUT) / _STEP).astype(np.intp)
    s = x - (_LEFT_CUT + _STEP * node)
    p = _TABLE[-1][node]
    for row in _TABLE[-2::-1]:
        p *= s
        p += row[node]
    return p


def ai_values(x) -> np.ndarray:
    """Vectorized Ai(x) for finite x >= -1e4; a scalar for a scalar x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise RangeError("ai_values requires finite arguments")
    if x.size and x.min() < _X_MIN:
        raise RangeError(f"ai_values: x = {float(x.min()):g} lies below "
                         f"{_X_MIN:g}, where Ai keeps fewer than 10 digits")
    left = x <= _LEFT_CUT
    right = x >= _RIGHT_CUT
    out = np.empty_like(x)
    for sel, ai in ((left, _ai_left), (right, _ai_right),
                    (~(left | right), _ai_middle)):
        if sel.any():
            out[sel] = ai(x[sel])
    return out[()]
