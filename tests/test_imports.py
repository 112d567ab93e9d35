"""Import guard: ``import nswp.cli`` loads numpy and nothing of scipy, and
neither does a whole ``verify --scenario sho``. No source file imports
scipy: the Dirichlet route diagonalises its dense sine-DVR Hamiltonian with
``numpy.linalg.eigh``, Ai comes from ``airy``'s numpy Taylor table, and the
split-step propagator uses ``numpy.fft``. The tests still use scipy, as a
reference (the ``test`` extra).

The one-copy rules are scanned here too: the masked split step's pieces
are called only by ``propagator.propagate``'s loop, only ``grids`` opens a
file for writing (no demo does), ``split_step`` is gone, and every NSWP
family's ``ScenarioResult`` is built by ``cases.run_case``, only
``grids`` spells the 5-point difference weights, and one statement raises
``BoundaryError``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.fft")


def test_cli_import_loads_no_heavy_scipy_package():
    # nor any other scipy module
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, nswp.cli; "
             "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == []


def test_cli_import_and_sho_verify_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, nswp.cli; "
             f"code = nswp.cli.main(['verify', '--scenario', 'sho', '--out', {str(tmp_path)!r}]); "
             "print(code, ' '.join(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()[-1].split()
    assert out == ["0"]


def test_ai_values_loads_no_scipy_special():
    # [-12, 10] holds points of both tails and of the table between them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, numpy, nswp; nswp.ai_values(numpy.linspace(-12.0, 10.0, 2201)); "
             "print(' '.join(m for m in sys.modules if m.startswith('scipy.special')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == []


def test_no_source_file_imports_heavy_scipy_package():
    heavy = "|".join(name.split(".")[1] for name in HEAVY)
    statement = re.compile(
        rf"^\s*(import\s+scipy\.({heavy})\b|from\s+scipy\.({heavy})\b"
        rf"|from\s+scipy\s+import\s+.*\b({heavy})\b)", re.MULTILINE)
    offenders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if statement.search(path.read_text())]
    assert offenders == []


def test_scipy_is_imported_only_by_grids():
    # a bare `import scipy` or `from scipy import ...` counts as "scipy".
    # grids, the last importer, dropped scipy.linalg with the tridiagonal
    # solves, so no source file imports any part of scipy
    imports = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        found = set(re.findall(r"^\s*(?:import|from)\s+scipy\.(\w+)", text, re.MULTILINE))
        if re.search(r"^\s*(?:import|from)\s+scipy\b(?!\.)", text, re.MULTILINE):
            found.add("scipy")
        if found:
            imports[str(path.relative_to(SRC))] = found
    assert imports == {}


def test_no_source_file_outside_grids_names_a_lapack_routine():
    routine = re.compile(r"gtsv|gttrf|gttrs|eigh_tridiagonal")
    offenders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if path.name != "grids.py" and routine.search(path.read_text())]
    assert offenders == []


# a spelling of the 5-point weights (1, -8, 0, 8, -1) / 12 and
# (-1, 16, -30, 16, -1) / 12: a run of them, -8, 16 or 30 times a slice, or
# 12 times the spacing
FD5_SPELLING = re.compile(
    r"-\s*8(?:\.0)?\s*,\s*0(?:\.0)?\s*,\s*8|16(?:\.0)?\s*,\s*-\s*30"
    r"|(?:-\s*8|\b16|\b30)(?:\.0)?\s*\*\s*\w+\s*\["
    r"|\b12(?:\.0)?\s*\*\s*(?:dx|h)\b")


def test_only_grids_spells_the_5_point_weights():
    spellers = {str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                if FD5_SPELLING.search(path.read_text())}
    assert spellers == {"nswp/grids.py"}


def _calls(tree):
    """(name of the enclosing top-level function or None, call node) for
    every call in a module."""
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                yield owner, call


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_split_step_pieces_are_called_only_by_propagate():
    pieces = {"_half_kick", "_kinetic_phase", "_mask_profile"}
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        for owner, call in _calls(ast.parse(path.read_text())):
            if _callee(call) in pieces:
                callers.add((str(path.relative_to(SRC)), owner))
    assert callers == {("nswp/propagator.py", "propagate")}


def test_scenario_results_are_built_by_run_case_and_the_controls():
    tree = ast.parse((SRC / "nswp" / "cases.py").read_text())
    builders = {owner for owner, call in _calls(tree) if _callee(call) == "ScenarioResult"}
    assert builders == {"run_case", "run_gaussian_spreading", "run_sho_timedep_frequency",
                        "run_corrupted_phase"}


def test_no_source_or_demo_names_shared_checks():
    # run_case returns the scenario with its shared checks in place
    offenders = [str(path) for root in (SRC, DEMOS) for path in sorted(root.rglob("*.py"))
                 if "shared_checks" in path.read_text()]
    assert offenders == []


def _writes(call):
    """The call opens or writes a file for writing."""
    if _callee(call) in ("write_text", "write_bytes"):
        return True
    if _callee(call) != "open":
        return False
    at = 0 if isinstance(call.func, ast.Attribute) else 1  # path.open(mode)
    mode = call.args[at] if len(call.args) > at else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    # a mode the scan cannot read counts as a write
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt"))


def _writers(root):
    return {str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
            if any(_writes(call) for _, call in _calls(ast.parse(path.read_text())))}


def test_only_grids_opens_a_file_for_writing():
    assert _writers(SRC) == {"nswp/grids.py"}


def test_no_demo_opens_a_file_for_writing():
    # the demos write through nswp's writers too
    assert list(DEMOS.glob("*.py"))
    assert _writers(DEMOS) == set()


def test_split_step_is_gone():
    import nswp
    import nswp.propagator

    assert not hasattr(nswp, "split_step")
    assert not hasattr(nswp.propagator, "split_step")


def test_one_statement_raises_boundary_error():
    # propagate's one check, which every route and both boundaries share
    raises = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
              for _ in re.finditer(r"\braise\s+BoundaryError\b", path.read_text())]
    assert raises == ["nswp/propagator.py"]
