"""The benchmark's workloads and the seeded generator of their `verify` argv.

Each workload is one `nswp verify` scenario. Seed 0 gives the CLI defaults,
which are the paper's cases; any other seed draws the physical parameters
uniformly from the ranges below with ``random.Random(seed)``. Only flags that
`nswp verify` honours for the scenario are passed: the CLI accepts some keys
it then ignores, and a draw of an ignored key would vary nothing.

How wide the ranges are. Each range has outer limits set by the physics
(given with each workload). Inside those limits the range is kept to a few
per cent of the paper's value, so that seeds are comparable problems: every
end-to-end metric, `worst_check_ratio` included, must spread across seeds by
well under its bound in BENCHMARK.json. The largest per-check sensitivity
measured on the default grids is the SHO centroid error, which grows like
amplitude^2.4, so +-1 % in amplitude moves `worst_check_ratio` by +-2.4 %.
A draw whose checks fail is reported as failed, never re-drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Param:
    """One verify flag; seed 0 uses ``default``, other seeds draw in [low, high]."""

    flag: str
    default: float
    low: float
    high: float

    def draw(self, rng: random.Random) -> float:
        return round(self.low + (self.high - self.low) * rng.random(), 6)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    fixed: tuple  # flags passed unchanged for every seed
    params: tuple
    n_checks: int  # checks in the scenario's report.json, for runs that write none


WORKLOADS = {
    w.name: w for w in (
        # Shifted SHO ground state, one period: 20 000 CN steps x 4096 points
        # under a static V, 201 snapshots that each record observables, a
        # spectral-shift reference and the H-tilde residual.
        #   --amplitude: the packet (sigma = 1/sqrt 2) keeps a relative edge
        #     amplitude below the propagator's 1e-3 wall check for
        #     amplitude < 4.2 on [-8, 8]; drawn in 2.0 +- 1 %.
        #   --n: fixed at 0. Mode 1 changes every per-snapshot check value
        #     about twofold (its H-tilde residual is 1.33x tolerance at the
        #     default amplitude on the 4096-point grid), which no bound on
        #     worst_check_ratio could absorb across seeds.
        Workload(
            name="sho-swing",
            scenario="sho",
            fixed=("--n", "0"),
            params=(Param("--amplitude", 2.0, 1.98, 2.02),),
            n_checks=10,
        ),
        # Forced Airy packet under F(t) = a sin(w t): the two-route phi0
        # check (nested adaptive quadrature) is over half the wall time, the
        # rest 4000 CN steps with a time-dependent V and an absorbing mask.
        #   --force-amp: a < A = B^3/2m = 0.5 keeps the total force A + F
        #     one-signed, so the main lobe keeps accelerating into the
        #     window; drawn in 0.3 +- 3 %.
        #   --force-freq: w t_end ~ 4 rad keeps less than one force period
        #     inside the 2 s run; drawn in 2.0 +- 3 %. The adaptive
        #     quadrature's work jumps with (a, w); +-3 % keeps wall_s within
        #     a few per cent across seeds.
        Workload(
            name="airy-forced",
            scenario="airy-forced",
            fixed=("--force-kind", "sin"),
            params=(Param("--force-amp", 0.3, 0.291, 0.309),
                    Param("--force-freq", 2.0, 1.94, 2.06)),
            n_checks=4,
        ),
        # Negative claim: two 10 000-step runs on 3072 points (modulated and
        # static control), V rebuilt every step, centroid-shift reference.
        #   --modulation: eps < 1 keeps w(t) = w0 (1 + eps sin w0 t) > 0 so
        #     the trap never inverts; drawn in 0.2 +- 2 %, over which the
        #     deviation that must exceed its threshold changes by +-3 %.
        Workload(
            name="trap-modulated",
            scenario="sho-timedep-freq",
            fixed=(),
            params=(Param("--modulation", 0.2, 0.196, 0.204),),
            n_checks=1,
        ),
    )
}


def generate(workload: Workload, seed: int) -> tuple[dict, list]:
    """Return (parameters, verify argv without --out) for ``seed``."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = random.Random(seed)
    values = {p.flag: (p.default if seed == 0 else p.draw(rng)) for p in workload.params}
    argv = ["--scenario", workload.scenario, *workload.fixed]
    for p in workload.params:
        argv += [p.flag, repr(float(values[p.flag]))]
    return values, argv
