"""Shifted harmonic-oscillator eigenstate as a nonspreading wave packet.

Builds the n-th oscillator eigenstate, attaches the swinging trajectory
d(t) = A sin(omega t) and the gauge that makes the supporting potential
static, then propagates independently for one period and prints the
verification summary. The potential is static, so the propagator takes no
step: all 201 snapshots, one every period/200, come from one product in the
eigenbasis of the sine-DVR Hamiltonian H on 128 points, exact in time.
Writes density snapshots to sho_demo_out/ for plotting.
"""

import pathlib

import numpy as np

from nswp import write_wavefield_csv
from nswp.cases import run_sho_shifted


def main():
    out = pathlib.Path("sho_demo_out")
    out.mkdir(exist_ok=True)

    print("propagating the shifted SHO ground state for one period...")
    result = run_sho_shifted(n=0, amplitude=2.0, omega=1.0)

    print(f"\nscenario {result.name}: {'PASS' if result.passed else 'FAIL'}")
    for c in result.checks:
        status = "ok " if c.passed else "FAIL"
        print(f"  [{status}] {c.name:32s} {c.value:.3e}  (tol {c.tolerance:.1e})")

    report = result.report
    print(f"\nmax density deviation from the rigidly translated profile: "
          f"{max(report.shape_deviation):.2e}")
    print(f"<H> stays at {np.mean(report.energy_mean):.6f} "
          f"(E_0 + classical energy = {result.extras['energy'] + 2.0:.6f})")

    for i in (0, len(report.snapshots) // 4, len(report.snapshots) // 2, -1):
        snap = report.snapshots[i]
        write_wavefield_csv(snap, out / f"psi_t{snap.time:.3f}.csv")
    print(f"\nsnapshots written to {out}/")


if __name__ == "__main__":
    main()
