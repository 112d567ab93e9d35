"""The Airy function Ai, evaluated in three regions of the real line.

- x <= -10: the oscillatory asymptotic expansion, DLMF 9.7.9,
  Ai(-z) = pi^-1/2 z^-1/4 [cos(zeta - pi/4) sum_k (-1)^k u_2k zeta^-2k
  + sin(zeta - pi/4) sum_k (-1)^k u_2k+1 zeta^-2k-1], zeta = (2/3) z^3/2,
  with 12 terms in each sum.
- x >= 8: the exponential asymptotic expansion, DLMF 9.7.5,
  Ai(x) = e^-zeta (2 sqrt(pi) x^1/4)^-1 sum_k (-1)^k u_k zeta^-k, with 20
  terms. Once e^-zeta underflows (x above about 108) the value is exactly 0.
- in between: ``scipy.special.airy``.

The coefficients are u_0 = 1, u_k = u_k-1 (6k-5)(6k-3)(6k-1) / ((2k-1) 216 k)
(DLMF 9.7.2). Against 40-digit references the error is at most about 4e-14
of the envelope |x|^-1/4 / sqrt(pi) on the left tail and about 4e-14
relative on the right, as with scipy there. The phase zeta carries a
rounding error of about 1e-16 zeta, so the left tail loses digits as |x|
grows; below x = -1e4 (zeta ~ 6.7e5, about 10 digits left in either
method) ``RangeError`` is raised.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import airy

from .errors import RangeError

# Cut points, measured on a 2-core x86 sandbox (numpy 2.4, scipy 1.17):
# scipy costs 0.09-0.14 us per point on -10 < x < 2 and 0.3-0.7 us on
# 2 < x < 8, but 3-5 us below -10 and 2.5 us above 8, where the expansions
# cost about 0.07 and 0.04 us. At x = 8 the first omitted term of the right
# sum is 5e-14 of Ai (3e-14 seen); at x = -10 the first omitted left terms
# are 4e-18 of the envelope. Further out, the rounding of zeta sets the error.
_LEFT_CUT = -10.0
_RIGHT_CUT = 8.0
_X_MIN = -1e4
# Ai(x) is subnormal from x = 104 and rounds to 0 from x = 108; clipping x at
# 200 (zeta = 1886) makes e^-zeta exactly 0 for every larger x and keeps
# x sqrt(x) finite for every float.
_X_CLIP = 200.0
_N_LEFT = 12
_N_RIGHT = 20


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


def _ai_middle(x: np.ndarray) -> np.ndarray:
    return airy(x)[0]


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
