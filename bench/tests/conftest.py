"""Make the harness modules (``bench/``) and the package (``src/``) importable.

Run with ``python3 -m pytest bench/tests`` from the repository root; tier-1
(``testpaths = ["tests"]``) does not collect these.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
