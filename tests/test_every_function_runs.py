"""Every top-level function and method in ``src/nswp`` runs when the
commands do: one ``reproduce``, then ``construct`` and ``propagate
--write-snapshots`` for each scenario that offers them, ``eigen`` for both
potentials, and the demos' work, the quartic demo's run at its own dt. A
function that none of them calls is code no command needs; ``NEVER_RUN``
names each exception and why, and an entry that starts running fails too,
so the list stays exact.

The commands run in a fresh interpreter that is traced from before
``nswp`` is imported, so what runs at import (the Airy tables) counts.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# "module.qualname" -> why no command runs it
NEVER_RUN = {
    # references the tests compare against; phi0_direct, integrate_time and
    # nested_triple_integral are also bound by bench/layers.py
    # (tests/test_bench_bindings.py)
    "constructor.NswpSolution.phi0_direct": "test reference for phi0",
    "quadrature.integrate_time": "test reference quadrature",
    "quadrature._adaptive": "integrate_time's recursion",
    "quadrature.nested_triple_integral": "test reference for the forced Airy phase",
    "verifier.infinitesimal_evolution_check": "test reference for the shift relation",
    # error paths
    "errors.first_outside": "names the value a RangeError refuses",
    "errors.AccuracyError.__init__": "raised only when a tolerance is missed",
    "errors.BoundaryError.__init__": "raised only when a run reaches the walls",
}

# run in the child, with the profile set before nswp is imported
CHILD = """
import json, sys
from pathlib import Path

ran = set()

def profile(frame, event, arg):
    if event == "call":
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import test_every_function_runs
test_every_function_runs.run_the_commands(Path.cwd())
sys.setprofile(None)
Path(sys.argv[1]).write_text(json.dumps(sorted(ran)))
"""


def run_the_commands(out: Path):
    from nswp import Grid1D
    from nswp.cases import SCENARIOS
    from nswp.cli import main
    from test_demos import DEMO_DIR, load

    assert main(["reproduce", "--out", str(out / "reproduce")]) == 0
    for name, entry in SCENARIOS.items():
        if entry.case is not None:
            assert main(["construct", "--scenario", name,
                         "--out", str(out / f"construct_{name}")]) == 0
        if entry.propagates:
            assert main(["propagate", "--scenario", name, "--write-snapshots",
                         "--out", str(out / f"propagate_{name}")]) == 0
    for potential, key in (("harmonic", "--omega"), ("quartic", "--lam")):
        assert main(["eigen", "--potential", potential, key, "1",
                     "--out", str(out / f"eigen_{potential}")]) == 0
    # the demos write their outputs to the working directory
    for demo in ("airy_accelerating_packet", "sho_coherent_packet"):
        load(DEMO_DIR / f"{demo}.py").main()
    load(DEMO_DIR / "quartic_custom_packet.py").quartic_round_trip(Grid1D(-5.0, 5.0, 128))


def top_level_functions():
    """{(module, first line of the code object): "module.qualname"} of every
    function and method defined at the top of a module or of a top-level
    class; a decorated function's code starts at its first decorator."""
    found = {}
    for path in sorted((SRC / "nswp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(node.name + ".", item) for item in node.body] \
                if isinstance(node, ast.ClassDef) else [("", node)]
            for prefix, item in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    found[path.stem, first] = f"{path.stem}.{prefix}{item.name}"
    return found


def test_every_top_level_function_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    trace = tmp_path / "ran.json"
    child = subprocess.run([sys.executable, "-c", CHILD, str(trace)], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    package = (SRC / "nswp").resolve()
    ran = {(Path(f).stem, line) for f, line in json.loads(trace.read_text())
           if Path(f).resolve().parent == package}
    functions = top_level_functions()
    never = {name for key, name in functions.items() if key not in ran}
    assert set(NEVER_RUN) <= set(functions.values()), "NEVER_RUN names a missing function"
    assert sorted(never - set(NEVER_RUN)) == [], "functions no command runs"
    assert sorted(set(NEVER_RUN) - never) == [], "NEVER_RUN names a function that runs"
