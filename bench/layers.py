"""nswp's layers as the traced run sees them: which functions get spans, and
how spans and counts become the per-layer metrics.

Wrappers are installed from here, never inside ``src/``. Each function is
replaced under every name a caller binds (``nswp.cases.analytic_psi`` and
``nswp.constructor.analytic_psi`` alike). ``propagate`` also gets its
callables wrapped (``v_fn``, ``reference_density``, ``htilde_fn``), so the
propagator's self time is the stepping itself.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np

from spans import Aggregate, SpanRecorder, rebind

ROOT = "cli.main"

# span name -> (module, attribute); the span name is the layer metric prefix
FUNCTIONS = {
    "cases.run_sho_shifted": ("nswp.cases", "run_sho_shifted"),
    "cases.run_airy_forced": ("nswp.cases", "run_airy_forced"),
    "cases.run_sho_timedep_frequency": ("nswp.cases", "run_sho_timedep_frequency"),
    "cases.phi0_forced_airy": ("nswp.cases", "phi0_forced_airy"),
    "constructor.analytic_psi": ("nswp.constructor", "analytic_psi"),
    "constructor.tdse_residual": ("nswp.constructor", "tdse_residual"),
    "eigensolver.lowest_eigenpairs": ("nswp.eigensolver", "lowest_eigenpairs"),
    "grids.observables": ("nswp.grids", "observables"),
    "grids.shift_values": ("nswp.grids", "shift_values"),
    "quadrature.nested_triple_integral": ("nswp.quadrature", "nested_triple_integral"),
    "quadrature.cumulative_antiderivative": ("nswp.quadrature", "cumulative_antiderivative"),
    "verifier.htilde_residual": ("nswp.verifier", "htilde_residual"),
    "verifier.classical_motion_check": ("nswp.verifier", "classical_motion_check"),
    "verifier.energy_split_check": ("nswp.verifier", "energy_split_check"),
    "verifier.no_nswp_for_time_dependent_frequency":
        ("nswp.verifier", "no_nswp_for_time_dependent_frequency"),
}

CHECK_SPANS = ("verifier.classical_motion_check", "verifier.energy_split_check",
               "verifier.no_nswp_for_time_dependent_frequency")
RECORD_SPANS = ("propagator.reference_density", "propagator.htilde_fn")


def install(rec: SpanRecorder) -> list:
    """Wrap nswp's layer functions for ``rec``; returns every binding replaced."""
    bound = []
    for name, (module, attr) in FUNCTIONS.items():
        original = getattr(importlib.import_module(module), attr)
        bound += rebind(original, rec.wrap(name, original), "nswp")

    propagator = importlib.import_module("nswp.propagator")
    bound += rebind(propagator.propagate, _propagate(rec, propagator.propagate), "nswp")
    quadrature = importlib.import_module("nswp.quadrature")
    bound += rebind(quadrature.integrate_time,
                    _integrate_time(rec, quadrature.integrate_time), "nswp")
    airy = importlib.import_module("nswp.airy")
    bound += rebind(airy.ai_values, _ai_values(rec, airy.ai_values), "nswp")

    constructor = importlib.import_module("nswp.constructor")
    cls = constructor.NswpSolution
    cls.phi0_direct = rec.wrap("constructor.phi0_direct", cls.phi0_direct)
    trajectory = importlib.import_module("nswp.trajectory")
    cls = trajectory.ForceTrajectory
    cls.__init__ = rec.wrap("trajectory.force_build", cls.__init__)
    bound += ["nswp.constructor.NswpSolution.phi0_direct",
              "nswp.trajectory.ForceTrajectory.__init__"]
    return bound


def _propagate(rec, original):
    sig = inspect.signature(original)

    def run(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        a = call.arguments
        a["v_fn"] = rec.wrap("propagator.v_fn", a["v_fn"])
        for key in ("reference_density", "htilde_fn"):
            if a.get(key) is not None:
                a[key] = rec.wrap(f"propagator.{key}", a[key])
        report = rec.call("propagator.propagate", original, *call.args, **call.kwargs)
        config = a["config"]
        rec.counts["propagator.steps"] += int(round(
            (report.times[-1] - config.t_start) / config.dt))
        rec.counts["propagator.snapshots"] += len(report.times)
        return report
    return run


def _integrate_time(rec, original):
    sig = inspect.signature(original)

    def run(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.arguments["f"] = rec.counted("quadrature.integrand_evals", call.arguments["f"])
        return rec.call("quadrature.integrate_time", original, *call.args, **call.kwargs)
    return run


def _ai_values(rec, original):
    def run(x):
        rec.counts["airy.ai_values.points"] += int(np.size(x))
        return rec.call("airy.ai_values", original, x)
    return run


def layer_metrics(spans, counts: dict, untraced_wall_s: float) -> tuple[dict, float, float]:
    """Per-layer metrics (name -> number) of one traced run, with the sum of
    all span self times and the traced wall time (the root span), which are
    equal when no time is counted twice or lost."""
    agg = Aggregate(spans)
    traced_wall_s = sum(s[2] - s[1] for s in spans if s[0] == ROOT)
    steps = counts.get("propagator.steps", 0)

    def calls(name):
        return agg.calls.get(name, 0)

    def incl(*names):
        return sum(agg.inclusive_s.get(n, 0.0) for n in names)

    metrics = {
        "propagator.steps": steps,
        "propagator.snapshots": counts.get("propagator.snapshots", 0),
        "propagator.step_us": (1e6 * agg.self_s.get("propagator.propagate", 0.0) / steps
                               if steps else 0.0),
        "propagator.potential_s": incl("propagator.v_fn"),
        "propagator.record_s": incl(*RECORD_SPANS),
        "grids.observables.calls": calls("grids.observables"),
        "grids.observables.s": incl("grids.observables"),
        "grids.shift_values.calls": calls("grids.shift_values"),
        "grids.shift_values.s": incl("grids.shift_values"),
        "verifier.htilde_residual.calls": calls("verifier.htilde_residual"),
        "verifier.htilde_residual.s": incl("verifier.htilde_residual"),
        "quadrature.integrate_time.calls": calls("quadrature.integrate_time"),
        "quadrature.integrate_time.s": incl("quadrature.integrate_time"),
        "quadrature.integrand_evals": counts.get("quadrature.integrand_evals", 0),
        "quadrature.nested_triple_integral.s": incl("quadrature.nested_triple_integral"),
        "quadrature.cumulative_antiderivative.calls":
            calls("quadrature.cumulative_antiderivative"),
        "quadrature.cumulative_antiderivative.s": incl("quadrature.cumulative_antiderivative"),
        "cases.phi0_forced_airy.s": incl("cases.phi0_forced_airy"),
        "constructor.phi0_direct.s": incl("constructor.phi0_direct"),
        "airy.ai_values.points": counts.get("airy.ai_values.points", 0),
        "airy.ai_values.s": incl("airy.ai_values"),
        "constructor.analytic_psi.calls": calls("constructor.analytic_psi"),
        "constructor.tdse_residual.s": incl("constructor.tdse_residual"),
        "trajectory.force_build_s": incl("trajectory.force_build"),
        "eigensolver.lowest_eigenpairs.s": incl("eigensolver.lowest_eigenpairs"),
        "verifier.checks_s": incl(*CHECK_SPANS),
        "cases.self_s": sum(v for k, v in agg.self_s.items() if k.startswith("cases.run_")),
        "cli.self_s": agg.self_s.get(ROOT, 0.0),
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
    }
    return metrics, agg.total_self_s, traced_wall_s
