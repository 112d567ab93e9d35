import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import airy

from nswp import ai_values
from nswp.errors import RangeError

# Ai(0) = 3^(-2/3) / Gamma(2/3), Ai'(0) = -3^(-1/3) / Gamma(1/3)
AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

# first five zeros of Ai (DLMF Table 9.9.1)
ZEROS = (-2.338107410459767, -4.087949444130971, -5.520559828095551,
         -6.786708090071759, -7.944133587120853)

# Ai on both asymptotic tails, at the two cut points (-10, 8) and on the
# Taylor table between them, from mpmath.airyai at mp.dps = 40, rounded to
# the nearest double
REFERENCE = ((-200.0, 0.14889394248381024),
             (-37.0, 0.006853376908681703),
             (-10.5, -0.3119260350510506),
             (-10.0, 0.04024123848644319),
             (-9.75, 0.25262476259634337),
             (-5.5, 0.017781541276574976),
             (-2.0, 0.22740742820168558),
             (-0.3, 0.43090309528558085),
             (1.7, 0.05432479273291947),
             (4.25, 0.0005646398353425014),
             (7.9, 6.239640097283934e-08),
             (8.0, 4.6922076160992316e-08),
             (8.5, 1.0997009755195506e-08),
             (12.0, 1.3931846888753607e-13),
             (40.0, 6.365742658552915e-75))


def _scale(x):
    """The yardstick for an error in Ai(x): the envelope
    |x|^-1/4 / sqrt(pi) of the oscillation for x < 0, held at its value at
    x = -1 on -1 < x < 0 where it grows without bound, and Ai itself for
    x >= 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, np.maximum(-x, 1.0) ** -0.25 / math.sqrt(math.pi), airy(x)[0])


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
    # [-11, 10] holds both cut points, so stencils straddle each seam
    x = np.linspace(-11.0, 10.0, 2101)
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


@pytest.mark.parametrize("x, value", REFERENCE)
def test_reference_values(x, value):
    scale = abs(x) ** -0.25 / math.sqrt(math.pi) if x < 0 else value
    assert abs(ai_values(x) - value) < 1e-13 * scale


@given(x=st.one_of(st.floats(-1e3, -10.0), st.floats(8.0, 100.0)))
def test_tails_agree_with_scipy(x):
    # Either method rounds zeta = (2/3)|x|^3/2 by a few ulp, and Ai is that
    # sensitive to it: the phase (left) or the exponent (right) carries an
    # absolute error of about eps * zeta, so the 1e-13 of the cut points
    # widens by 4 eps zeta further out (scipy is itself off by 4.2e-12 of
    # the envelope at x = -1000).
    zeta = 2.0 / 3.0 * abs(x) ** 1.5
    tol = 1e-13 + 4.0 * np.finfo(float).eps * zeta
    assert abs(ai_values(x) - airy(x)[0]) < tol * _scale(x)


@given(x=st.floats(-10.0, 8.0))
def test_table_agrees_with_scipy(x):
    assert abs(ai_values(x) - airy(x)[0]) < 1e-13 * _scale(x)


def test_seams_agree_with_scipy():
    # both sides of every midpoint between two table nodes, where the
    # nearest node changes, and of both cut points, where the region does
    seams = np.concatenate([[-10.0], np.arange(-9.875, 8.0, 0.25), [8.0]])
    assert seams.size == 74
    below = np.nextafter(seams, -np.inf)
    above = np.nextafter(seams, np.inf)
    for x in (below, seams, above):
        assert np.all(np.abs(ai_values(x) - airy(x)[0]) < 1e-13 * _scale(x))
    assert np.all(np.abs(ai_values(above) - ai_values(below)) < 1e-13 * _scale(seams))


def test_mixed_inputs_keep_shape_and_values():
    for x in (-20.0, 0.5, 9.0):
        value = ai_values(np.float64(x))
        assert np.ndim(value) == 0 and isinstance(value, np.floating)
        assert abs(value - airy(x)[0]) < 1e-13 * _scale(x)
    x = np.array([[-30.0, -10.0, -9.99, 0.0],
                  [7.99, 8.0, 15.0, -12.5],
                  [3.0, 250.0, -10.01, 1e3]])
    values = ai_values(x)
    assert values.shape == (3, 4)
    assert np.array_equal(values, [[ai_values(v) for v in row] for row in x])
    middle = (x > -10.0) & (x < 8.0)
    assert np.all(np.abs(values[middle] - airy(x[middle])[0]) < 1e-13 * _scale(x[middle]))
    assert ai_values(np.array([])).shape == (0,)
    assert ai_values(np.zeros((2, 0))).shape == (2, 0)


def test_range_below_minus_1e4():
    assert abs(ai_values(-1e4)) < 1e4 ** -0.25
    for bad in (-1.0001e4, -1e8, -1e300):
        with pytest.raises(RangeError, match=re.escape(f"x = {bad:g}")):
            ai_values(bad)
    with pytest.raises(RangeError, match="x = -200000 "):
        ai_values(np.array([0.0, -3.0, -2e5]))


def test_exact_zero_once_the_exponential_underflows():
    # filterwarnings = error: an overflow in zeta would fail here
    assert 0.0 < ai_values(104.0) < 1e-300
    for big in (110.0, 1e6, 1e200, np.finfo(float).max):
        assert ai_values(big) == 0.0
