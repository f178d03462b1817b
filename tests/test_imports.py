"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import nbcomplex
from nbcomplex import ExperimentConfig, TrialRecord, experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"

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


def bench_module(name, monkeypatch):
    """A module of bench/, loaded by path; its own imports resolve there."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_tracer_wraps_exists(monkeypatch):
    # bench/tracing.py looks its targets up by name on the package's
    # modules; a renamed or deleted one should fail here, not in a run
    tracing = bench_module("tracing", monkeypatch)
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        target = importlib.import_module(f"nbcomplex.{module}")
        assert callable(getattr(target, name, None)), f"{module}.{name}"


def test_surveys_call_the_trial_function_the_benchmark_times(monkeypatch):
    # bench/workloads.py times each op by rebinding experiments.run_trial;
    # a survey that ran its trials some other way would time nothing
    workloads = bench_module("workloads", monkeypatch)
    original = experiments.run_trial
    cfg = ExperimentConfig(n=5, p_grid=(0.0, 0.4, 1.0), trials=3,
                           master_seed=7, max_dim=2)
    times: list = []
    with workloads.timed_trials(times):
        records = experiments.run_survey(cfg)
    assert len(times) == len(records) == 9
    times.clear()
    with workloads.timed_trials(times):
        swept, _ = experiments.betti_sweep(5, cfg.p_grid, 3, 7, 2)
    assert len(times) == len(swept) == 9
    assert swept == records
    assert experiments.run_trial is original


def test_trial_records_keep_every_attribute_the_workloads_read():
    text = (BENCH / "workloads.py").read_text()
    read = set(re.findall(r"\br\.(\w+)", text))
    assert {"betti", "errors", "torsion_seen"} <= read
    assert read <= {f.name for f in dataclasses.fields(TrialRecord)}
