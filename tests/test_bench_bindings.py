"""The names the traced benchmark binds still exist.

``bench/layers.py`` wraps nswp functions by module path and rebinds
``propagate``'s ``v_fn`` by keyword, reading ``config.t_start`` and
``config.dt``. Tier-1 does not collect ``bench/tests``, so a rename in
``src/`` would otherwise break the traced benchmark without a failing test.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np

import nswp.cases
from nswp import Grid1D, PropagationConfig, WaveField
from nswp.propagator import propagate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.FUNCTIONS
    missing = [f"{module}.{attr}" for module, attr in layers.FUNCTIONS.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


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
    assert report.times == [0.0, 0.25, 0.5]
