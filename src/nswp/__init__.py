"""Construction and numerical verification of nonspreading wave packets.

A nonspreading wave packet (NSWP) is a solution of the time-dependent
Schrodinger equation whose probability density is a rigid translation of a
fixed profile f along a designed trajectory d(t). The package builds such
packets from arbitrary static 1-D potentials, derives the supporting
time-dependent potential, and verifies the result by independent propagation
(the exact sine-DVR evolution of a reference Hamiltonian between walls, or
split-step Fourier under an absorbing mask) and by a
Hamiltonian-decomposition analysis.
"""

from .airy import ai_values
from .constructor import (AiryShape, GaugeFunction, NswpSolution, SampledShape,
                          analytic_psi, gauge_linear_case, gauge_sho_case,
                          phase, tdse_residual, v_nswp)
from .eigensolver import EigenPair, StaticPotential, lowest_eigenpairs
from .grids import (Grid1D, Observables, PhysicalConstants, WaveField, observables,
                    write_wavefield_csv)
from .propagator import AbsorbingMask, PropagationConfig, RunReport, propagate
from .quadrature import integrate_time, nested_triple_integral
from .trajectory import ForceTrajectory, Polynomial, Sinusoid, Trajectory
from .verifier import (CheckResult, classical_motion_check, energy_split_check,
                       htilde_residual, infinitesimal_evolution_check,
                       no_nswp_for_time_dependent_frequency, rigid_shape_deviation,
                       shape_deviation)

__version__ = "0.1.0"
