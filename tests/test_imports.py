"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import nbcomplex

# Run in a fresh interpreter: the test process itself has numpy, sympy and
# hypothesis loaded.  Modules the interpreter loaded before the import (site
# hooks of installed packages) are not the package's doing and are left out,
# and so is multiprocessing's alias of the main module, "__mp_main__".
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import nbcomplex
for info in pkgutil.walk_packages(nbcomplex.__path__, "nbcomplex."):
    importlib.import_module(info.name)
main = sys.modules["__main__"]
loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if name not in before and module is not main}
print(json.dumps(sorted(loaded)))
"""


def test_package_imports_only_the_standard_library():
    src = str(Path(nbcomplex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    loaded = set(json.loads(out.stdout))
    assert "nbcomplex" in loaded
    assert "numpy" not in loaded
    outside = {name for name in loaded - {"nbcomplex"}
               if name not in sys.stdlib_module_names}
    assert not outside, f"non-stdlib imports: {sorted(outside)}"


def test_every_function_the_benchmark_tracer_wraps_exists():
    # bench/tracing.py looks its targets up by name on the package's
    # modules; a renamed or deleted one should fail here, not in a run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        target = importlib.import_module(f"nbcomplex.{module}")
        assert callable(getattr(target, name, None)), f"{module}.{name}"
