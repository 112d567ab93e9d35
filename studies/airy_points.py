"""Airy propagation grid against its point count: every check of the Airy
runs, free and forced, on N points over [-36, 12].

    PYTHONPATH=src python studies/airy_points.py

writes ``studies/airy_points.json`` beside this file (about 5 s on one
core). nswp does not import this module.

Each row is one ``cases.run_airy_forced`` at B = 1 and the defaults
(dt = 1e-2, t_end = 2) on ``Grid1D(-36, 12, N)`` for N in ``POINTS``,
under one force of ``FORCES``: none (``airy-free``), sin 0.3 x 2 (the
``airy-forced`` default), sin forces of amplitude 0.45, as strong as
keeps A + F one-signed (A = 0.5), at frequencies 2, 6 and 12, and two
constant forces. It holds each check's value, bound and ratio of the
two, the selection rules the row breaks (``fails``), and the run's time
from its start to its last check, the least over ``REPEATS`` passes over
all rows. The construction residual is taken on its own mesh, at most
the dx of 4096 points (``NswpCase.residual_mesh``), so it reads the same
at every N.

The propagation grid's count is the fewest N whose rows break no rule:
- each check in ``PROPAGATED`` reads at most ``MAX_RATIO`` = 0.05 of its
  bound;
- ``windowed_density_mismatch`` rises above its value at 4096 points,
  same force, by at most ``MAX_DENSITY_RISE`` = 1 %. It is held to its
  4096-point value, not to a ratio: its floor, 0.13 to 0.26 of its bound,
  is set by the mask and the window, not by the points;
- each tier-1 test bound on an Airy check value holds
  (``TIER1_BOUNDS``, the 1e-5 of
  ``test_airy_free_windowed_momentum_rate_is_the_force``).
``main`` prints the rows and writes that N as ``"chosen"``, which
``tests/test_studies.py`` holds ``cases._AIRY_GRID``'s count to.

What the table shows:
- the packet carries wavenumbers of about 6 to 7, and the checks that
  read a density barely see N: at every N the windowed density keeps its
  4096-point value to 1 % but once (2048 points, sin 0.45 x 2, +3.0 %),
  and the content loss reads at most 1.1e-5, about 1e-3 of its bound;
- the peak and H_c checks stay under 0.05 of their bounds at every N,
  down to 512 points (at most 0.041 and 0.027);
- what N moves is the free run's H_c slope, the windowed <P> from a
  5-point stencil: 7.6e-7 at 4096 points, 4.1e-6 at 1536, then 2.4e-5 at
  1024, past its tier-1 test's 1e-5, and 16x that at 512 (dx^4). So the
  study chooses 1536 points;
- on one core of a 2-core Xeon (numpy 2.4.6), the default forced run
  takes 48 ms on 4096 points and 29 ms on 1536; fewer points save at
  most 8 ms more, since the parts that take no step, among them the
  construction residual on its 4096-point mesh and the two-route phase
  check, take most of what is left.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

import nswp
from nswp import Grid1D
from nswp.cases import _AIRY_GRID, run_airy_forced, uniform_force

POINTS = (4096, 2048, 1536, 1024, 768, 512)
# (force_kind, force_amp, force_freq) keys of ``cases.uniform_force``
FORCES = (("none", None, None), ("sin", 0.3, 2.0), ("sin", 0.45, 2.0),
          ("sin", 0.45, 12.0), ("sin", -0.45, 6.0), ("const", 0.3, None),
          ("const", 0.45, None))
# the propagated checks held to MAX_RATIO of their bounds; the fourth, the
# windowed density, is held to its 4096-point value instead
PROPAGATED = ("peak_follows_trajectory", "hc_constant_force", "window_content_loss")
MAX_RATIO = 0.05
MAX_DENSITY_RISE = 0.01
# (force label, check) -> the bound a tier-1 test holds that value to
TIER1_BOUNDS = {("none", "hc_constant_force"): 1e-5}
REPEATS = 3
HERE = Path(__file__).resolve().parent
OUT = HERE / "airy_points.json"


def row(n_points: int, force: tuple) -> dict:
    """One run's checks on ``n_points`` under ``force``, and its time."""
    grid = Grid1D(_AIRY_GRID.x_min, _AIRY_GRID.x_max, n_points)
    start = time.perf_counter()
    result = run_airy_forced(*uniform_force(*force), grid=grid)
    checks = result.checks
    seconds = time.perf_counter() - start
    return {"n_points": n_points, "force": result.extras["force"],
            "checks": {c.name: {"value": c.value, "bound": c.tolerance,
                                "ratio": c.value / c.tolerance} for c in checks},
            "seconds": seconds}


def failures(r: dict, at_4096: dict) -> list:
    """The selection rules row ``r`` breaks, given the row of the same force
    at 4096 points."""
    checks = r["checks"]
    out = [name for name in PROPAGATED if checks[name]["ratio"] > MAX_RATIO]
    density = "windowed_density_mismatch"
    if checks[density]["value"] > (1.0 + MAX_DENSITY_RISE) * at_4096["checks"][density]["value"]:
        out.append(density)
    out += [f"tier-1 {name}" for (force, name), bound in TIER1_BOUNDS.items()
            if r["force"] == force and not checks[name]["value"] < bound]
    return out


def main() -> int:
    # every row once per pass, so that a slow spell of the host slows one
    # pass of every row, not every pass of a few rows
    passes = [[row(n, force) for n in POINTS for force in FORCES] for _ in range(REPEATS)]
    rows = passes[0]
    for r, *again in zip(*passes):
        assert all(a["checks"] == r["checks"] for a in again)
        r["seconds"] = min(r["seconds"], *(a["seconds"] for a in again))
    at_4096 = {r["force"]: r for r in rows if r["n_points"] == 4096}
    for r in rows:
        r["fails"] = failures(r, at_4096[r["force"]])
        c = r["checks"]
        print(f"{r['n_points']:5d} {r['force']:12s} {r['seconds'] * 1e3:6.1f} ms  "
              f"peak {c['peak_follows_trajectory']['value']:.3e}  "
              f"density {c['windowed_density_mismatch']['value']:.4e}  "
              f"hc {c['hc_constant_force']['value']:.3e}  "
              f"loss {c['window_content_loss']['value']:.3e}  {' '.join(r['fails'])}")
    chosen = min(n for n in POINTS
                 if not any(r["fails"] for r in rows if r["n_points"] == n))
    table = {"study": "airy_points", "chosen": chosen,
             "grid": [_AIRY_GRID.x_min, _AIRY_GRID.x_max],
             "rules": {"propagated": list(PROPAGATED), "max_ratio": MAX_RATIO,
                       "max_density_rise": MAX_DENSITY_RISE,
                       "tier1_bounds": [[f, c, b] for (f, c), b in TIER1_BOUNDS.items()]},
             "versions": {"nswp": nswp.__version__, "numpy": np.__version__,
                          "python": platform.python_version()},
             "rows": rows}
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"chosen: {chosen} points; wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
