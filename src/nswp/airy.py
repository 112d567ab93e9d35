"""The Airy function Ai, evaluated by ``scipy.special.airy``."""

from __future__ import annotations

import numpy as np
from scipy.special import airy

from .errors import RangeError


def ai_values(x) -> np.ndarray:
    """Vectorized Ai(x) for finite x; a scalar for a scalar x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise RangeError("ai_values requires finite arguments")
    return airy(x)[0]
