"""Every demo script imports and defines ``main``; their work runs only under
``__main__``, so importing is cheap and catches a demo that names a function
the package no longer has. The quartic demo's run, the paper's general case
under a time-dependent potential, also runs here on a smaller grid."""

import importlib.util
from pathlib import Path

import pytest

from nswp import Grid1D, PropagationConfig
from nswp.cases import run_case

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_and_defines_main(path):
    assert callable(load(path).main)


def test_quartic_packet_rides_its_round_trip():
    # the demo's run: its quartic mode and polynomial round trip on its +-5
    # grid of 128 points, 400 composed steps of its dt = 5e-3 to t = 2; the
    # shape deviation reads 3.5e-7 and the drift 1.5e-7
    demo = load(DEMO_DIR / "quartic_custom_packet.py")
    _, res, dev, drift = demo.quartic_round_trip(Grid1D(-5.0, 5.0, 128), dt=demo.DT)
    assert res < 1e-4
    assert dev < 1e-4
    assert drift < 1e-4


def test_run_case_measures_the_htilde_residual_of_the_quartic_packet():
    # a case between walls that is not sho gets its H-tilde column from
    # run_case: 11 snapshots to t = 0.2 at the demo's dt, max 5.0e-8
    demo = load(DEMO_DIR / "quartic_custom_packet.py")
    grid = Grid1D(-5.0, 5.0, 128)
    _, case = demo.quartic_case(grid)
    config = PropagationConfig(dt=demo.DT, t_end=0.2, grid=grid, snapshot_stride=4)
    report = run_case(case, config, "quartic_round_trip", {}, lambda report: []).report
    assert len(report.htilde_residual) == len(report.times) == 11
    assert max(report.htilde_residual) < 1e-6
