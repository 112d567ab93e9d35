"""Each study in ``studies/`` against its committed table: a tier-1 rerun of
the study's cheapest corner must read the table's values. nswp does not
import the studies; they hold the sweeps behind the tolerances in
``src/nswp``."""

import importlib.util
import json
from pathlib import Path

import pytest

STUDIES = Path(__file__).resolve().parents[1] / "studies"


def load(name):
    spec = importlib.util.spec_from_file_location(f"study_{name}", STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trap_step_error_cheapest_corner_matches_its_table(timedep_result):
    # eps = 0.2 at dt = 0.1 with the composed step: the estimate and the
    # true error (against the composed step at dt = 1e-3) must read the
    # table's values to 1e-6 relative, far above the round-off of the
    # eigensolve and the products, and the estimate is the one the trap
    # scenario records
    study = load("trap_step_error")
    table = json.loads((STUDIES / "trap_step_error.json").read_text())
    row, = [r for r in table["rows"] if r["case"] == "trap" and r["modulation"] == 0.2
            and r["scheme"] == "yoshida" and r["dt"] == 0.1]
    rerun = study.trap_row(0.2, "yoshida", 0.1, study.trap_reference(0.2))
    assert rerun.keys() == row.keys()
    assert rerun["estimate"] == pytest.approx(row["estimate"], rel=1e-6)
    assert rerun["error"] == pytest.approx(row["error"], rel=1e-6)
    assert timedep_result.extras["step_error_estimate"] == pytest.approx(row["estimate"],
                                                                         rel=1e-6)
    assert set(table["versions"]) == {"nswp", "numpy", "python"}
