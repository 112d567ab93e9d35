"""Shared fixtures. The end-to-end scenario runs are expensive (seconds
each), so they are computed once per session and shared by the unit tests
and the acceptance suite.
"""

import numpy as np
import pytest

from nswp import PhysicalConstants, grids
from nswp.cases import (run_airy_forced, run_gaussian_spreading, run_sho_shifted,
                        run_sho_timedep_frequency, uniform_force)


@pytest.fixture(scope="session")
def consts():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def sho_result():
    return run_sho_shifted(n=0, amplitude=2.0, omega=1.0)


@pytest.fixture(scope="session")
def airy_free_result():
    # the zero-force member of the Airy family, as the airy-free scenario runs it
    return run_airy_forced(*uniform_force("none"), B=1.0)


@pytest.fixture(scope="session")
def airy_forced_result():
    return run_airy_forced(lambda t: 0.3 * np.sin(2.0 * t), force_label="sin")


@pytest.fixture(scope="session")
def gaussian_result():
    return run_gaussian_spreading()


@pytest.fixture(scope="session")
def timedep_result():
    # the modulated trap and its static control; the report is the modulated
    # run's, the extras the negative-claim record
    return run_sho_timedep_frequency(modulation=0.2)


@pytest.fixture
def fresh_eigenpairs():
    """An empty memo of ``grids.hamiltonian_eigenpairs`` before and after the
    test, so that each eigensolve the test makes calls ``numpy.linalg.eigh``
    and none it patched outlives it."""
    grids._hamiltonian_eigenpairs.cache_clear()
    yield
    grids._hamiltonian_eigenpairs.cache_clear()


def check_by_name(result, name):
    """Pull a named CheckResult out of a ScenarioResult."""
    for c in result.checks:
        if c.name == name:
            return c
    raise KeyError(name)
