"""Construction and numerical verification of nonspreading wave packets.

A nonspreading wave packet (NSWP) is a solution of the time-dependent
Schrodinger equation whose probability density is a rigid translation of a
fixed profile f along a designed trajectory d(t). The package builds such
packets from arbitrary static 1-D potentials, derives the supporting
time-dependent potential, and verifies the result by unitary Crank-Nicolson
propagation and by a Hamiltonian-decomposition analysis.
"""

from .airy import ai_values
from .constructor import (AiryShape, GaugeFunction, NswpSolution, SampledShape,
                          analytic_psi, gauge_linear_case, gauge_sho_case,
                          phase, tdse_residual, v_nswp)
from .eigensolver import (EigenPair, StaticPotential, TridiagonalMatrix,
                          build_hamiltonian, lowest_eigenpairs)
from .grids import (Grid1D, Observables, PhysicalConstants, WaveField,
                    inner_product, norm, observables, read_wavefield_csv,
                    shift_field, write_wavefield_csv)
from .propagator import (AbsorbingMask, Dirichlet, PropagationConfig,
                         RunReport, crank_nicolson_step, propagate)
from .quadrature import integrate_time, nested_triple_integral
from .trajectory import (ForceTrajectory, Polynomial, Rest, Sinusoid,
                         TabulatedSpline, Trajectory, UniformAcceleration)
from .verifier import (CheckResult, DecompositionReport, classical_motion_check,
                       decomposition_report, energy_split_check,
                       htilde_residual, infinitesimal_evolution_check,
                       make_htilde_metric, no_nswp_for_time_dependent_frequency)

__version__ = "0.1.0"
