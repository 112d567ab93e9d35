"""Self-accelerating Airy packet in free space.

The Airy mode of a linear potential, launched in FREE space (the supporting
potential cancels identically), accelerates without spreading: the main
lobe follows x_peak = B^3 t^2 / (4 m^2) although no force acts. The run is
the zero-force member F = 0 of the forced Airy family, m d_ddot = A + F(t),
as the ``airy-free`` scenario runs it. It compares the split-step Fourier
evolution against the closed form on an interior window and prints the peak
trajectory.
"""

import pathlib

import numpy as np

from nswp.cases import run_airy_forced, uniform_force
from nswp.grids import write_csv


def main():
    out = pathlib.Path("airy_demo_out")
    out.mkdir(exist_ok=True)

    print("propagating the Airy packet in free space (absorbing boundaries)...")
    result = run_airy_forced(*uniform_force("none"), B=1.0)

    print(f"\nscenario {result.name}: {'PASS' if result.passed else 'FAIL'}")
    for c in result.checks:
        status = "ok " if c.passed else "FAIL"
        print(f"  [{status}] {c.name:32s} {c.value:.3e}  (tol {c.tolerance:.1e})")

    # peak trajectory table: t, measured peak displacement, B^3 t^2 / 4m^2
    report = result.report
    grid, times = report.grid, report.times
    window = result.extras["window"]
    sel = (grid.x >= window[0]) & (grid.x <= window[1])
    peaks = grid.x[sel][np.argmax(np.abs(report.snapshot_values[:, sel]) ** 2, axis=1)]
    B, m = result.extras["B"], result.solution.consts.mass
    write_csv(out / "peak_trajectory.csv", ("t", "measured", "expected"),
              times, peaks - peaks[0], B**3 * times**2 / (4.0 * m**2))
    print(f"\npeak trajectory written to {out}/peak_trajectory.csv")
    print(f"expected law: displacement = B^3 t^2 / (4 m^2) with B = {B:g}, m = {m:g}")


if __name__ == "__main__":
    main()
