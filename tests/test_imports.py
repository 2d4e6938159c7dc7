"""Importing the package and its CLI must not load scipy or networkx.

Every ``dacqo`` command is a fresh process that pays its imports; scipy
is needed only by ``fit``, which imports it when a fit runs, and
networkx only by the tests, as the oracle of the pair scheduler's
matcher.  Every name a module exports in ``__all__`` must resolve, so
a stale export fails here and not in a user's ``import *``.
"""

import importlib
import os
import pkgutil
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
from dacqo.synthesis import correction_weights, coverage_plan, schedule_pairs

U = exact_evolution(random_spin_glass(3, 0, "mixed"), Schedule(1.0, 2), 20)
assert U.shape == (8, 8)
rounds = schedule_pairs(correction_weights(coverage_plan(32, 4)[2]), 32)
assert sum(map(len, rounds)) == 400
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "networkx")))
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


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"dacqo.{m.name}")
               for m in pkgutil.iter_modules(dacqo.__path__)]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert exported
    assert [(m.__name__, name) for m, name in exported
            if not hasattr(m, name)] == []
