"""Import guard: ``import nswp.cli`` loads only numpy, scipy.linalg and
scipy.special of the numerical stack. scipy.integrate and scipy.interpolate
each pull in scipy.optimize, scipy.sparse and more, about 0.3 s that every
command would pay again. The split-step propagator uses ``numpy.fft``,
which numpy loads anyway, not ``scipy.fft``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.fft")


def test_cli_import_loads_no_heavy_scipy_package():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, nswp.cli; "
             "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "scipy.linalg" in out and "scipy.special" in out
    assert [m for m in out if ".".join(m.split(".")[:2]) in HEAVY] == []


def test_no_source_file_imports_heavy_scipy_package():
    heavy = "|".join(name.split(".")[1] for name in HEAVY)
    statement = re.compile(
        rf"^\s*(import\s+scipy\.({heavy})\b|from\s+scipy\.({heavy})\b"
        rf"|from\s+scipy\s+import\s+.*\b({heavy})\b)", re.MULTILINE)
    offenders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if statement.search(path.read_text())]
    assert offenders == []
