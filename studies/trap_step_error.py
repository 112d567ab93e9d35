"""Step error between walls against dt and scheme: the modulated trap, and
the quartic demo's round trip.

    PYTHONPATH=src python studies/trap_step_error.py

writes ``studies/trap_step_error.json`` beside this file (about 10 s on
one core). nswp does not import this module.

The trap rows run the modulated trap of ``cases.run_sho_timedep_frequency``
at hbar = m = 1, as that scenario builds it: its grid and initial mode
(``cases.trap_start``, the oscillator ground state sampled at d = 2) and
V = w(t)^2 x^2 / 2, w = 1 + eps sin t (``cases.trap_potential``), to t = 10.
The quartic rows run ``demos/quartic_custom_packet.py``'s case on its +-5
grid of 128 points to t = 2. Both schemes share V_ref = V(dt/2) and the
exact evolution of T + V_ref from nswp's memoised eigenpairs, and differ
in how they compose one step:

- ``strang``: half kicks of V(t + dt/2) - V_ref around the exact
  evolution of T + V_ref over dt, the between-walls step nswp took before
  the composed one (second order);
- ``yoshida``: that step composed at weights w1, w0, w1 of dt (H. Yoshida,
  Phys. Lett. A 150, 262 (1990)), the step ``propagate`` takes between
  walls (fourth order).

Each row holds the Richardson estimate of the final state's error,
max|Psi_dt - Psi_2dt| / (2^p - 1) relative to max|Psi_dt| (p the scheme's
order; the pass at 2 dt keeps the run's V_ref, so for ``yoshida`` this is
the estimate ``propagate`` computes), and the true error, max|Psi_dt -
Psi_ref| relative to max|Psi_ref|. Psi_ref is ``yoshida`` at dt = 1e-3
for the trap and the closed-form packet (``analytic_psi``) for the quartic
case.

What the table shows:
- in every row the estimate reads 0.91 to 1.06 of the true error, so a
  tolerance on the estimate holds the true error (``STEP_TOLERANCE`` in
  ``propagator``);
- ``yoshida`` at dt = 0.1 reads 2.9e-5 on the trap at eps = 0.2, as
  ``strang`` did at the old dt = 0.01, and passes the tolerance for
  |eps| <= 0.2 (``_TRAP_DT`` in ``cases``);
- near dt = 0.1 the trap's estimate falls about 15x, not 16x, per halving
  of dt, so a dt cut from the dt^4 scaling of one estimate aims below the
  tolerance (the trap's retry in ``cases``);
- on the quartic round trip ``yoshida`` at dt = 0.005 (400 steps) reads
  9.0e-7, near the 7.1e-7 of ``strang`` at the demo's old dt = 1e-4
  (20 000 steps), so the demo steps at 0.005.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np

import nswp
from nswp import Grid1D, PhysicalConstants, analytic_psi
from nswp.cases import _TRAP_HORIZON, trap_potential, trap_start
from nswp.constructor import v_nswp
from nswp.grids import _phases, hamiltonian_eigenpairs
from nswp.propagator import _SUBSTEPS, _evolution_matrix

CONSTS = PhysicalConstants()
# (weight, kick time) of each substep, in units of dt from the step's start
SCHEMES = {"strang": ((1.0, 0.5),), "yoshida": _SUBSTEPS}
ORDERS = {"strang": 2, "yoshida": 4}
MODULATIONS = (0.05, 0.2, -0.2, 0.5, 0.7, 0.9)
TRAP_DTS = (0.1, 0.05, 0.025)
REFERENCE_DT = 1e-3
QUARTIC_RUNS = (("yoshida", (0.02, 0.01, 0.005, 0.0025)), ("strang", (1e-4,)))
QUARTIC_T_END = 2.0
HERE = Path(__file__).resolve().parent
OUT = HERE / "trap_step_error.json"


def trap(modulation: float):
    """The trap's grid, initial samples and V(x, t) at ``modulation``."""
    return (*trap_start(modulation, CONSTS), trap_potential(modulation, CONSTS))


def quartic():
    """The quartic demo's grid, initial samples, V_nswp(x, t) and Psi at t_end."""
    spec = importlib.util.spec_from_file_location(
        "quartic_custom_packet", HERE.parent / "demos" / "quartic_custom_packet.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    grid = Grid1D(-5.0, 5.0, 128)
    _, case = demo.quartic_case(grid)
    sol = case.sol
    return (grid, analytic_psi(sol, grid, 0.0).values,
            lambda x, t: v_nswp(sol, case.v, x, t),
            analytic_psi(sol, grid, QUARTIC_T_END).values)


def final_state(grid, values, v_fn, scheme: str, dt: float, t_end: float,
                t_ref: float) -> np.ndarray:
    """Psi at ``t_end`` from steps of ``dt`` of ``scheme``, written out with
    numpy: each substep of weight w is half kicks exp(-i w dt dV / 2 hbar)
    of dV = V - V_ref at its kick time around exp(-i w dt H_ref / hbar),
    V_ref = V(``t_ref``)."""
    x = grid.x
    v_ref = np.asarray(v_fn(x, t_ref), dtype=float)
    energies, vectors = hamiltonian_eigenpairs(grid, v_ref, CONSTS)
    substeps = [(w * dt, at * dt, _evolution_matrix(energies, vectors, w * dt, CONSTS.hbar))
                for w, at in SCHEMES[scheme]]
    for i in range(round(t_end / dt)):
        t = i * dt
        for h, at, matrix in substeps:
            kick = _phases((-0.5 * h / CONSTS.hbar) * (v_fn(x, t + at) - v_ref))
            values = kick * (matrix @ (kick * values))
    return values


def row(run, scheme: str, dt: float, t_end: float, reference: np.ndarray) -> dict:
    """The estimate and the true error of one run of ``run`` = (grid,
    initial samples, v_fn); its pass at 2 dt keeps its V_ref, as
    ``propagate``'s does."""
    psi = final_state(*run, scheme, dt, t_end, 0.5 * dt)
    coarse = final_state(*run, scheme, 2 * dt, t_end, 0.5 * dt)
    estimate = np.max(np.abs(psi - coarse)) / np.max(np.abs(psi)) / (2 ** ORDERS[scheme] - 1)
    error = np.max(np.abs(psi - reference)) / np.max(np.abs(reference))
    return {"scheme": scheme, "dt": dt, "estimate": float(estimate), "error": float(error)}


def trap_row(modulation: float, scheme: str, dt: float, reference: np.ndarray) -> dict:
    return {"case": "trap", "modulation": modulation,
            **row(trap(modulation), scheme, dt, _TRAP_HORIZON, reference)}


def trap_reference(modulation: float) -> np.ndarray:
    return final_state(*trap(modulation), "yoshida", REFERENCE_DT, _TRAP_HORIZON,
                       0.5 * REFERENCE_DT)


def main() -> int:
    rows = []
    for modulation in MODULATIONS:
        reference = trap_reference(modulation)
        rows += [trap_row(modulation, scheme, dt, reference)
                 for scheme in SCHEMES for dt in TRAP_DTS]
    *run, exact = quartic()
    rows += [{"case": "quartic", **row(run, scheme, dt, QUARTIC_T_END, exact)}
             for scheme, dts in QUARTIC_RUNS for dt in dts]
    for r in rows:
        print(f"{r['case']:7s} eps = {r.get('modulation', 0.0):5.2f}  {r['scheme']:7s}  "
              f"dt = {r['dt']:6.4f}  estimate {r['estimate']:.3e}  error {r['error']:.3e}")
    table = {"study": "trap_step_error",
             # "omega0": the trap's frequency, which is its time unit
             "trap": {"omega0": 1.0, "t_end": _TRAP_HORIZON,
                      "reference": {"scheme": "yoshida", "dt": REFERENCE_DT}},
             "quartic": {"grid": [-5.0, 5.0, 128], "t_end": QUARTIC_T_END,
                         "reference": "analytic_psi"},
             "versions": {"nswp": nswp.__version__, "numpy": np.__version__,
                          "python": platform.python_version()},
             "rows": rows}
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
