import math

import numpy as np
import pytest
from scipy.integrate import simpson

from nswp import ai_values
from nswp.errors import RangeError

# Ai(0) = 3^(-2/3) / Gamma(2/3), Ai'(0) = -3^(-1/3) / Gamma(1/3)
AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

# first five zeros of Ai (DLMF Table 9.9.1)
ZEROS = (-2.338107410459767, -4.087949444130971, -5.520559828095551,
         -6.786708090071759, -7.944133587120853)


def test_value_at_zero():
    assert abs(ai_values(0.0) - AI0) < 1e-15
    assert np.ndim(ai_values(0.0)) == 0


def test_derivative_at_zero():
    # 5-point central first derivative at h = 1e-3
    h = 1e-3
    f = ai_values(h * np.arange(-2, 3))
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12.0 * h)
    assert abs(d1 - AIP0) < 1e-11


def test_integral_over_positive_axis():
    # int_0^inf Ai = 1/3; Ai(40) ~ 1e-74, so [0, 40] holds the whole integral
    x = np.linspace(0.0, 40.0, 40001)
    assert abs(simpson(ai_values(x), x=x) - 1.0 / 3.0) < 1e-13


def test_decay_at_plus_ten():
    val = ai_values(10.0)
    assert 0.0 < val < 1e-9


def test_zeros():
    assert np.max(np.abs(ai_values(np.array(ZEROS)))) < 1e-14
    # far out on the oscillatory side, past |x| = 200: a_k = -T(3 pi (4k - 1)/8)
    # with T(t) = t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4 + 77125/82944 t^-6 + ...)
    k = np.arange(1000, 1006)
    t = 3.0 * np.pi * (4 * k - 1) / 8.0
    a_k = -t ** (2.0 / 3.0) * (1 + 5 / 48 * t**-2 - 5 / 36 * t**-4 + 77125 / 82944 * t**-6)
    assert np.all(a_k < -200.0)
    values = ai_values(a_k)
    assert np.max(np.abs(values)) < 1e-10
    # each zero sits between a positive and a negative lobe
    between = ai_values(0.5 * (a_k[:-1] + a_k[1:]))
    assert np.all(np.abs(between) > 0.1)
    assert np.all(np.sign(between[:-1]) == -np.sign(between[1:]))


def test_airy_ode_residual():
    # Ai'' = x Ai, checked with a 5-point FD second derivative at h = 1e-2
    h = 1e-2
    x = np.linspace(-8.0, 8.0, 801)
    stencil = np.array([
        ai_values(x + k * h) for k in (-2, -1, 0, 1, 2)
    ])
    d2 = (-stencil[0] + 16 * stencil[1] - 30 * stencil[2]
          + 16 * stencil[3] - stencil[4]) / (12.0 * h**2)
    residual = np.abs(d2 - x * stencil[2])
    assert np.max(residual) < 1e-7


def test_range_error():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(RangeError):
            ai_values(bad)
        with pytest.raises(RangeError):
            ai_values(np.array([0.0, bad]))
