"""Importing the package and its CLI must not load scipy.

Every ``dacqo`` command is a fresh process that pays its imports; scipy
is needed only by ``fit``, which imports it when a fit runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import dacqo

_PROBE = """
import sys
import dacqo
import dacqo.cli
from dacqo.counterdiabatic import Schedule, exact_evolution
from dacqo.problem import random_spin_glass

U = exact_evolution(random_spin_glass(3, 0, "mixed"), Schedule(1.0, 2), 20)
assert U.shape == (8, 8)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_and_exact_evolution_do_not_load_scipy():
    # the probe takes about 0.5 s; the timeout only stops a hung child
    src = str(Path(dacqo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, timeout=30, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]", out.stdout
