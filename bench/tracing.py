"""Per-layer tracing from outside the package.

The tracer replaces public functions of nbcomplex's modules with timing
wrappers (in every module namespace that imported them), so nothing under
src/ knows it is being traced.  Busy time is a call's wall time; self time
subtracts the time of traced calls made inside it.  Counts are read off the
arguments and results at the same boundaries.  Totals are divided by the
number of rounds, so each figure is per pass over the workload's inputs.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter


def _adds(key, amount):
    """Counter that adds ``amount(result)`` to ``counts[key]``."""
    def counter(counts, args, kwargs, out):
        counts[key] += amount(out)
    return counter


def _snf_counts(counts, args, kwargs, out):
    matrix = args[0] if args else kwargs["m"]
    counts["homology.snf_nnz_in"] += sum(len(col) for col in matrix.cols)
    counts["homology.snf_rank"] += out[0]


def _write_counts(counts, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["experiments.bytes_written"] += os.path.getsize(path)


def _retract_counts(counts, args, kwargs, out):
    counts["complexes.retract_facets"] += len(out.facets)
    counts["complexes.retract_builds"] += 1


# (module, function, counter run on each call's arguments and result)
TARGETS = (
    ("graphs", "gnp_sample", None),
    ("graphs", "maximal_cliques", None),
    ("complexes", "neighborhood_complex", None),
    ("complexes", "closed_set_poset",
     _adds("complexes.poset_elements", lambda out: len(out.elements))),
    ("complexes", "lovasz_retract", _retract_counts),
    ("complexes", "neighborliness", None),
    ("homology", "graph_homology",
     _adds("homology.retract_routes", lambda out: out[1] == "retract")),
    ("homology", "boundary_matrices",
     _adds("homology.faces",
           lambda out: sum(len(layer) for layer in out.faces))),
    ("homology", "smith_normal_form", _snf_counts),
    ("homology", "betti_field2", None),
    ("homology", "gf2_rank", None),
    ("certificates", "find_sphere_certificates",
     _adds("certificates.found", len)),
    ("experiments", "run_trial", None),
    ("experiments", "aggregate", None),
    ("experiments", "write_records", _write_counts),
    ("experiments", "read_records", None),
    ("cli", "main", None),
)

def _busy(key):
    return lambda t: t.busy[key]


def _self(key):
    return lambda t: t.self_time[key]


def _count(key):
    return lambda t: t.counts[key]


def _retract_use_ratio(t):
    built = t.counts["complexes.retract_builds"]
    return t.counts["homology.retract_routes"] / built if built else 0.0


# metric name -> (unit, value from a Tracer, before dividing by rounds)
PER_LAYER = {
    "graphs.gnp_sample.s": ("s", _busy("graphs.gnp_sample")),
    "graphs.maximal_cliques.s": ("s", _busy("graphs.maximal_cliques")),
    "complexes.neighborhood_complex.s":
        ("s", _busy("complexes.neighborhood_complex")),
    "complexes.closed_set_poset.s": ("s", _busy("complexes.closed_set_poset")),
    "complexes.poset_elements": ("count", _count("complexes.poset_elements")),
    "complexes.lovasz_retract.s": ("s", _busy("complexes.lovasz_retract")),
    "complexes.retract_facets": ("count", _count("complexes.retract_facets")),
    "complexes.retract_builds": ("count", _count("complexes.retract_builds")),
    "complexes.neighborliness.s": ("s", _busy("complexes.neighborliness")),
    "homology.graph_homology.self_s":
        ("s", _self("homology.graph_homology")),
    "homology.retract_use_ratio": ("ratio", _retract_use_ratio),
    "homology.boundary_matrices.s": ("s", _busy("homology.boundary_matrices")),
    "homology.faces": ("count", _count("homology.faces")),
    "homology.smith_normal_form.s": ("s", _busy("homology.smith_normal_form")),
    "homology.snf_nnz_in": ("count", _count("homology.snf_nnz_in")),
    "homology.snf_rank": ("count", _count("homology.snf_rank")),
    "homology.betti_field2.s": ("s", _busy("homology.betti_field2")),
    "homology.gf2_rank.s": ("s", _busy("homology.gf2_rank")),
    "certificates.find_sphere_certificates.s":
        ("s", _busy("certificates.find_sphere_certificates")),
    "certificates.found": ("count", _count("certificates.found")),
    "experiments.run_trial.self_s": ("s", _self("experiments.run_trial")),
    "experiments.aggregate.s": ("s", _busy("experiments.aggregate")),
    "experiments.write.s": ("s", _busy("experiments.write_records")),
    "experiments.read.s": ("s", _busy("experiments.read_records")),
    "experiments.bytes_written":
        ("count", _count("experiments.bytes_written")),
    "cli.main.self_s": ("s", _self("cli.main")),
    "runtime.gc_s": ("s", lambda t: t.gc_s),
}

# The ratio is already per build; every other figure is divided by rounds.
_NOT_PER_ROUND = {"homology.retract_use_ratio"}


class Tracer:
    """Wraps the TARGETS while installed and accumulates time and counts."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.gc_s = 0.0
        self._children: list[float] = []  # traced-child time per open call
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    def _wrap(self, key, fn, counter):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            started = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - started
                inner = self._children.pop()
                self.busy[key] += spent
                self.self_time[key] += spent - inner
                if self._children:
                    self._children[-1] += spent
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_started

    def install(self) -> None:
        for mod, _, _ in TARGETS:
            importlib.import_module(f"nbcomplex.{mod}")
        modules = [m for name, m in sys.modules.items()
                   if name == "nbcomplex" or name.startswith("nbcomplex.")]
        for mod, fn, counter in TARGETS:
            original = getattr(sys.modules[f"nbcomplex.{mod}"], fn)
            traced = self._wrap(f"{mod}.{fn}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, traced)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def metrics(self, rounds: int) -> dict:
        out = {}
        for name, (unit, value) in PER_LAYER.items():
            v = value(self)
            if name not in _NOT_PER_ROUND:
                v /= rounds
            out[name] = {"value": v, "unit": unit}
        return out
