"""Nonspreading packet from a potential with no closed-form modes.

The construction takes ANY static potential: here the quartic V = x^4.
The ground state comes from the grid eigensolver, the designed motion is a
smooth polynomial excursion, and the supporting potential (which here is
genuinely time dependent, unlike the SHO case) is derived automatically.
The packet is then propagated under that potential and its density is
compared against the rigid translation of the eigenmode.
"""

import numpy as np

from nswp import (GaugeFunction, Grid1D, NswpSolution, PhysicalConstants,
                  Polynomial, PropagationConfig, SampledShape,
                  StaticPotential, analytic_psi, lowest_eigenpairs, propagate,
                  tdse_residual, v_nswp)


def main():
    consts = PhysicalConstants()
    # the fourth-order Numerov operator and Pade step resolve this mode on
    # 1024 points
    grid = Grid1D(-8.0, 8.0, 1024)
    v = StaticPotential.quartic(1.0)

    print("solving the quartic ground state...")
    pair = lowest_eigenpairs(v, grid, consts, 1)[0]
    print(f"  E_0 = {pair.energy:.8f} (residual {pair.residual:.1e})")

    # smooth round trip: out to x = 1 and back, at rest at both ends
    t_end = 2.0
    traj = Polynomial((0.0, 0.0, 16.0, -32.0, 20.0, -4.0))
    sol = NswpSolution(SampledShape.from_eigenpair(pair), traj,
                       GaugeFunction.zero(), consts=consts, t_max=t_end + 1.0)

    peak = float(np.max(np.abs(analytic_psi(sol, grid, 0.0).values)))
    res = max(tdse_residual(sol, v, grid, t) for t in (0.3, 1.0, 1.7)) / peak
    print(f"construction self-check: TDSE residual {res:.2e} of max|Psi|")

    def v_fn(x, t):
        return v_nswp(sol, v, x, t)

    def ref_density(t):
        return sol.shape.on_grid_shifted(grid, traj.d(t)) ** 2

    print("propagating under the derived time-dependent supporting potential...")
    # quartic walls are steep: dt must keep dt*max|V| well under hbar/2
    config = PropagationConfig(dt=5e-5, t_end=t_end, grid=grid, snapshot_stride=400)
    report = propagate(analytic_psi(sol, grid, 0.0), v_fn, config, consts,
                       reference_density=ref_density)

    dev = max(report.shape_deviation)
    print(f"  max density deviation from the translated mode: {dev:.2e}")
    drift = max(abs(c - d) for c, d in
                zip(report.centroid, [traj.d(t) for t in report.times]))
    print(f"  max centroid error vs designed d(t): {drift:.2e}")
    print("the quartic packet rides the designed excursion without spreading"
          if dev < 1e-3 else "unexpected spreading; inspect the run")


if __name__ == "__main__":
    main()
