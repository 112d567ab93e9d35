"""Self-accelerating Airy packet in free space.

The Airy mode of a linear potential, launched in FREE space (the supporting
potential cancels identically), accelerates without spreading: the main
lobe follows x_peak = B^3 t^2 / (4 m^2) although no force acts. The run is
the zero-force member F = 0 of the forced Airy family, m d_ddot = A + F(t),
as the ``airy-free`` scenario runs it. It compares the split-step Fourier
evolution against the closed form on an interior window and writes the peak
trajectory, read between grid points as the run's peak check reads it.
"""

import pathlib

import numpy as np

from nswp.cases import quadratic_peak, run_airy_forced, uniform_force
from nswp.grids import write_csv


def peak_table(result):
    """t, the main lobe's displacement and the law B^3 t^2 / (4 m^2) of an
    Airy run's snapshots. The peak of |Psi|^2 on the comparison window is
    read by ``cases.quadratic_peak``, as the ``peak_follows_trajectory``
    check reads it, not at a grid point."""
    report = result.report
    grid, times = report.grid, report.times
    lo, hi = result.extras["window"]
    sel = (grid.x >= lo) & (grid.x <= hi)
    peaks = np.array([quadratic_peak(grid.x[sel], np.abs(row[sel]) ** 2)
                      for row in report.snapshot_values])
    B, m = result.extras["B"], result.solution.consts.mass
    return times, peaks - peaks[0], B**3 * times**2 / (4.0 * m**2)


def main():
    out = pathlib.Path("airy_demo_out")
    out.mkdir(exist_ok=True)

    print("propagating the Airy packet in free space (absorbing boundaries)...")
    result = run_airy_forced(*uniform_force("none"), B=1.0)

    print(f"\nscenario {result.name}: {'PASS' if result.passed else 'FAIL'}")
    for c in result.checks:
        status = "ok " if c.passed else "FAIL"
        print(f"  [{status}] {c.name:32s} {c.value:.3e}  (tol {c.tolerance:.1e})")

    write_csv(out / "peak_trajectory.csv", ("t", "measured", "expected"), *peak_table(result))
    B, m = result.extras["B"], result.solution.consts.mass
    print(f"\npeak trajectory written to {out}/peak_trajectory.csv")
    print(f"expected law: displacement = B^3 t^2 / (4 m^2) with B = {B:g}, m = {m:g}")


if __name__ == "__main__":
    main()
