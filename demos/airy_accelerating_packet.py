"""Self-accelerating Airy packet in free space.

The Airy mode of a linear potential, launched in FREE space (the supporting
potential cancels identically), accelerates without spreading: the main
lobe follows x_peak = B^3 t^2 / (4 m^2) although no force acts. The run
compares the split-step Fourier evolution against the closed form on an
interior window and prints the peak trajectory.
"""

import pathlib

import numpy as np

from nswp.cases import run_airy_free


def main():
    out = pathlib.Path("airy_demo_out")
    out.mkdir(exist_ok=True)

    print("propagating the Airy packet in free space (absorbing boundaries)...")
    result = run_airy_free(B=1.0)

    print(f"\nscenario {result.name}: {'PASS' if result.passed else 'FAIL'}")
    for c in result.checks:
        status = "ok " if c.passed else "FAIL"
        print(f"  [{status}] {c.name:32s} {c.value:.3e}  (tol {c.tolerance:.1e})")

    # peak trajectory table: t, measured peak displacement, B^3 t^2 / 4m^2
    report = result.report
    grid = report.snapshots[0].grid
    window = result.extras["window"]
    sel = (grid.x >= window[0]) & (grid.x <= window[1])
    with open(out / "peak_trajectory.csv", "w") as fh:
        fh.write("t,measured,expected\n")
        x0 = None
        for snap, t in zip(report.snapshots, report.times):
            rho = snap.density()[sel]
            xw = grid.x[sel]
            peak = xw[np.argmax(rho)]
            if x0 is None:
                x0 = peak
            fh.write(f"{t:.17g},{peak - x0:.17g},{t**2 / 4.0:.17g}\n")
    print(f"\npeak trajectory written to {out}/peak_trajectory.csv")
    print("expected law: displacement = B^3 t^2 / (4 m^2) = t^2/4 here")


if __name__ == "__main__":
    main()
