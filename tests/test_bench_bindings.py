"""The names the traced benchmark binds still exist, and its table of
checks that pass by exceeding their bound still names the right ones.

``bench/layers.py`` wraps nswp functions by module path and rebinds
``propagate``'s ``v_fn`` by keyword, reading ``config.t_start`` and
``config.dt``; it also wraps ``integrate_time``'s integrand by the keyword
``f``, ``ai_values`` as a one-argument callable, and two methods on their
classes. ``bench/run.py``'s ``MUST_EXCEED`` inverts the ratio of the
checks it names. Tier-1 does not collect ``bench/tests``, so a rename in
``src/`` would otherwise break the benchmark without a failing test.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np

import nswp.cases
from nswp import Grid1D, PropagationConfig, WaveField, airy, quadrature
from nswp.constructor import NswpSolution
from nswp.propagator import propagate
from nswp.trajectory import ForceTrajectory

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.FUNCTIONS
    missing = [f"{module}.{attr}" for module, attr in layers.FUNCTIONS.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


# the session run of each benchmarked scenario at the defaults seed 0 passes
DEFAULT_RUNS = {"sho": "sho_result", "airy-forced": "airy_forced_result",
                "sho-timedep-freq": "timedep_result"}


def test_must_exceed_names_the_passing_checks_above_their_bound(monkeypatch, request):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads").WORKLOADS
    must_exceed = importlib.import_module("run").MUST_EXCEED
    scenarios = {w.scenario for w in workloads.values()}
    assert scenarios == set(DEFAULT_RUNS)
    checks = [c for s in sorted(scenarios)
              for c in request.getfixturevalue(DEFAULT_RUNS[s]).checks]
    assert all(c.passed for c in checks)
    assert {c.name for c in checks if c.value > c.tolerance} == must_exceed


def test_propagate_takes_the_keywords_the_bench_binds():
    assert nswp.cases.propagate is propagate
    grid = Grid1D(-8.0, 8.0, 64)
    config = PropagationConfig(dt=0.25, t_end=0.5, grid=grid)
    call = inspect.signature(propagate).bind(
        WaveField(grid=grid, values=np.exp(-grid.x**2)),
        v_fn=lambda x, t: np.zeros_like(x), config=config)
    assert call.arguments["config"].t_start == 0.0
    assert call.arguments["config"].dt == 0.25
    report = propagate(*call.args, **call.kwargs)
    assert report.times.tolist() == [0.0, 0.25, 0.5]


def test_the_names_bound_outside_functions_keep_their_shape():
    assert "f" in inspect.signature(quadrature.integrate_time).parameters
    assert len(inspect.signature(airy.ai_values).parameters) == 1
    assert "phi0_direct" in vars(NswpSolution) and callable(NswpSolution.phi0_direct)
    assert "__init__" in vars(ForceTrajectory) and callable(ForceTrajectory.__init__)
