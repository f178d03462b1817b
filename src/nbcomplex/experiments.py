"""Seeded random-graph surveys with reproducible, order-independent output.

Every trial seed is derived from (master seed, p index, trial index), so a
survey is a pure function of its config: reruns, different worker counts,
and different trial orderings all produce byte-identical records.  Records
never carry timestamps; per-trial wall time is kept in memory for
interactive use but excluded from serialization and equality.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
from dataclasses import dataclass, field, asdict
from multiprocessing import Pool
from typing import Optional, Sequence, Union

from .certificates import find_sphere_certificates
from .complexes import (closed_set_stats, neighborhood_complex_components,
                        neighborliness)
from .errors import FormatError, capped
from .graphs import derive_trial_seed, gnp_sample, maximum_clique
from .homology import graph_homology

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Caps:
    """Work caps threaded through survey trials.

    ``faces_per_dim`` caps the total number of cells that homology
    reduces over dimensions 0..max_dim+1, not each dimension on its own:
    the faces of the neighborhood complex's strong core outside the star
    of one vertex (see ``boundary_matrices``).  It also caps, in each of
    those dimensions, the star's faces that the face walk visits.  The name
    is kept because it appears in every summary's config echo.
    ``poset_elements`` caps ``closed_set_stats``, which gives
    the ``closed_sets`` and ``retract_dim`` record fields.  ``clique_vertices``
    caps the vertex count of the maximum-clique search (the clique number)
    and of the simplicial-vertex scan (the certificates); neither lists the
    maximal cliques, but a capped trial records the enumerator's message,
    "maximal clique enumeration capped at ...", so that record bytes stay
    the same.
    ``neighborliness_steps`` caps the work of the neighborliness search:
    each node it visits is charged the non-neighborhoods it examines, and
    each closed-form probe the ones it reads.
    """

    clique_vertices: int = 64
    poset_elements: int = 20_000
    neighborliness_steps: int = 5_000_000
    faces_per_dim: int = 500_000
    full_homology_vertices: int = 12
    capped_homology_vertices: int = 30
    capped_homology_max_dim: int = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """One survey: a vertex count, a probability grid, and feature flags.

    Exact homology runs for n up to the full-homology cap; between that and
    the capped-homology cap only Betti numbers up to a small max_dim are
    allowed; beyond it the homology flag must be off.
    """

    n: int
    p_grid: tuple[float, ...]
    trials: int
    master_seed: int
    max_dim: int = 4
    homology: bool = True
    neighborliness: bool = False
    certificates: bool = False
    clique_stats: bool = False
    caps: Caps = field(default_factory=Caps)

    def __post_init__(self):
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if not self.p_grid:
            raise ValueError("p_grid must be nonempty")
        for p in self.p_grid:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range: {p}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.max_dim < 0:
            raise ValueError(f"max_dim must be nonnegative, got {self.max_dim}")
        if self.neighborliness and self.n < 1:
            raise ValueError("neighborliness needs at least one vertex; "
                             "disable the neighborliness flag for n=0")
        if self.homology:
            if self.n > self.caps.capped_homology_vertices:
                raise ValueError(
                    f"homology is limited to n <= "
                    f"{self.caps.capped_homology_vertices}; disable the "
                    f"homology flag for n={self.n}")
            if (self.n > self.caps.full_homology_vertices
                    and self.max_dim > self.caps.capped_homology_max_dim):
                raise ValueError(
                    f"for n > {self.caps.full_homology_vertices} only "
                    f"max_dim <= {self.caps.capped_homology_max_dim} is "
                    f"supported, got max_dim={self.max_dim}")

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["p_grid"] = list(self.p_grid)
        return d


@dataclass(frozen=True)
class TrialRecord:
    """Measurements from one sampled graph.

    Optional fields are None when their feature was off or a cap stopped
    them (the cap event is then listed in ``errors``).  ``wall_time_ms`` is
    informational only: excluded from equality and from serialization.
    """

    trial_index: int
    p_index: int
    p: float
    seed: int
    edge_count: int
    complex_connected: bool
    empty_complex: bool
    clique_number: Optional[int]
    neighborliness: Optional[int]
    closed_set_count: Optional[int]
    retract_dimension: Optional[int]
    homology_source: Optional[str]
    betti: Optional[tuple[int, ...]]
    torsion_seen: Optional[bool]
    certificates: Optional[tuple[int, ...]]
    errors: tuple[str, ...] = ()
    wall_time_ms: float = field(default=0.0, compare=False)


def run_trial(cfg: ExperimentConfig, p_index: int,
              trial_index: int) -> TrialRecord:
    """Run one trial; a pure function of (cfg, p_index, trial_index)."""
    started = time.perf_counter()
    p = cfg.p_grid[p_index]
    seed = derive_trial_seed(cfg.master_seed, p_index, trial_index)
    g = gnp_sample(cfg.n, p, seed)
    caps = cfg.caps
    failures: list = []

    # N[G] itself is built only by graph_homology
    connected = neighborhood_complex_components(g) <= 1
    edges = g.edge_count

    omega = nbl = closed = hom = certs = None
    if cfg.clique_stats:
        omega = capped(failures, "clique_number", lambda: len(
            maximum_clique(g, vertex_cap=caps.clique_vertices)))
    if cfg.neighborliness:
        nbl = capped(failures, "neighborliness", lambda: neighborliness(
            g, work_cap=caps.neighborliness_steps))
    if cfg.homology:
        # records have always named the poset here; keep the prefix
        closed = capped(failures, "closed_set_poset", lambda: closed_set_stats(
            g, element_cap=caps.poset_elements))
        hom = capped(failures, "homology", lambda: graph_homology(
            g, max_dim=cfg.max_dim, face_cap=caps.faces_per_dim))
    if cfg.certificates:
        certs = capped(failures, "certificates", lambda: tuple(
            c.sphere_dim for c in find_sphere_certificates(
                g, vertex_cap=caps.clique_vertices)))

    closed_count, retract_dim = (None, None) if closed is None else closed
    betti = torsion_seen = source = None
    if hom is not None:
        result, source = hom
        betti = result.betti
        torsion_seen = any(t for t in result.torsion)
        if torsion_seen:
            log.warning("torsion at n=%d p=%.4g trial=%d: %s",
                        cfg.n, p, trial_index, result.torsion)

    return TrialRecord(
        trial_index=trial_index, p_index=p_index, p=p, seed=seed,
        edge_count=edges, complex_connected=connected,
        empty_complex=edges == 0, clique_number=omega, neighborliness=nbl,
        closed_set_count=closed_count, retract_dimension=retract_dim,
        homology_source=source, betti=betti, torsion_seen=torsion_seen,
        certificates=certs,
        errors=tuple(f"{name}: {err}" for name, err in failures),
        wall_time_ms=(time.perf_counter() - started) * 1000.0)


def _trial_star(args: tuple) -> TrialRecord:
    return run_trial(*args)


def run_survey(cfg: ExperimentConfig, jobs: int = 1) -> list[TrialRecord]:
    """All trials of a survey, ordered by (p index, trial index).

    ``jobs`` > 1 fans trials out to a process pool of at most that many
    workers, and never more than there are trials or CPUs; results are
    identical to a serial run because every trial is seeded independently.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    work = [(cfg, pi, ti)
            for pi in range(len(cfg.p_grid)) for ti in range(cfg.trials)]
    procs = min(jobs, len(work), os.cpu_count() or 1)
    if procs == 1:
        return [run_trial(*w) for w in work]
    with Pool(procs) as pool:
        return pool.map(_trial_star, work)


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class ProbabilitySummary:
    """Aggregates for one grid point.

    The Betti statistics are over trials where homology completed; the
    certificate frequencies over trials where the search ran.  Variance is
    the population variance.
    """

    p_index: int
    p: float
    trials: int
    betti_trials: int
    betti_mean: Optional[tuple[float, ...]]
    betti_variance: Optional[tuple[float, ...]]
    vanishing_freq: Optional[tuple[float, ...]]
    certificate_trials: int
    certificate_freq: Optional[tuple[float, ...]]
    mean_closed_sets: Optional[float]


@dataclass(frozen=True)
class SurveySummary:
    """Per-probability aggregates plus the full config echo.

    ``local_maxima`` counts strict local maxima of each dimension's mean
    Betti curve across the grid (after collapsing plateaus).  It is a shape
    diagnostic only; nothing in the library asserts unimodality.
    """

    config: ExperimentConfig
    per_p: tuple[ProbabilitySummary, ...]
    local_maxima: Optional[tuple[int, ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "per_p": [asdict(s) for s in self.per_p],
            "local_maxima": (list(self.local_maxima)
                             if self.local_maxima is not None else None),
        }


def aggregate(records: Sequence[TrialRecord],
              cfg: ExperimentConfig) -> SurveySummary:
    """Aggregate records against their config; shapes must match exactly."""
    expected = len(cfg.p_grid) * cfg.trials
    if len(records) != expected:
        raise ValueError(
            f"record/config mismatch: {len(records)} records for "
            f"{len(cfg.p_grid)} x {cfg.trials} trials")
    dims = cfg.max_dim + 1
    per_p: list[ProbabilitySummary] = []
    for pi, p in enumerate(cfg.p_grid):
        rows = [r for r in records if r.p_index == pi]
        if len(rows) != cfg.trials or any(r.p != p for r in rows):
            raise ValueError(f"record/config mismatch at p index {pi}")
        brows = [r for r in rows if r.betti is not None]
        if brows and any(len(r.betti) != dims for r in brows):
            raise ValueError(f"betti width mismatch at p index {pi}")
        if brows:
            means, variances, vanishing = [], [], []
            for k in range(dims):
                vals = [r.betti[k] for r in brows]
                s1 = sum(vals)
                s2 = sum(v * v for v in vals)
                mean = s1 / len(vals)
                means.append(mean)
                variances.append(s2 / len(vals) - mean * mean)
                vanishing.append(sum(1 for v in vals if v == 0) / len(vals))
            betti_mean = tuple(means)
            betti_var = tuple(variances)
            vanish = tuple(vanishing)
        else:
            betti_mean = betti_var = vanish = None
        crows = [r for r in rows if r.certificates is not None]
        if crows:
            cert_freq = tuple(
                sum(1 for r in crows if k in r.certificates) / len(crows)
                for k in range(dims))
        else:
            cert_freq = None
        closed = [r.closed_set_count for r in rows
                  if r.closed_set_count is not None]
        per_p.append(ProbabilitySummary(
            p_index=pi, p=p, trials=len(rows), betti_trials=len(brows),
            betti_mean=betti_mean, betti_variance=betti_var,
            vanishing_freq=vanish, certificate_trials=len(crows),
            certificate_freq=cert_freq,
            mean_closed_sets=sum(closed) / len(closed) if closed else None))
    return SurveySummary(cfg, tuple(per_p))


def count_strict_local_maxima(values: Sequence[float]) -> int:
    """Strict local maxima after collapsing equal-value plateaus.

    A constant curve has none; a boundary point counts when it strictly
    dominates its single neighbor.
    """
    collapsed: list[float] = []
    for v in values:
        if not collapsed or collapsed[-1] != v:
            collapsed.append(v)
    if len(collapsed) < 2:
        return 0
    count = 0
    for i, v in enumerate(collapsed):
        left = i == 0 or collapsed[i - 1] < v
        right = i == len(collapsed) - 1 or collapsed[i + 1] < v
        if left and right:
            count += 1
    return count


def betti_sweep(n: int, p_grid: Sequence[float], trials: int,
                master_seed: int, max_dim: int, jobs: int = 1,
                caps: Caps = Caps()) -> tuple[list[TrialRecord], SurveySummary]:
    """Survey expected Betti numbers across a probability grid.

    Returns the trial records and a summary whose ``local_maxima`` entry
    counts strict local maxima of each mean curve, as a peak-shape
    diagnostic.
    """
    cfg = ExperimentConfig(n=n, p_grid=tuple(p_grid), trials=trials,
                           master_seed=master_seed, max_dim=max_dim,
                           homology=True, caps=caps)
    records = run_survey(cfg, jobs=jobs)
    summary = aggregate(records, cfg)
    curves_ok = all(s.betti_mean is not None for s in summary.per_p)
    maxima = None
    if curves_ok:
        maxima = tuple(
            count_strict_local_maxima([s.betti_mean[k] for s in summary.per_p])
            for k in range(max_dim + 1))
    return records, SurveySummary(cfg, summary.per_p, maxima)


# ---------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class _Kind:
    """The type of one record field: a scalar type (a list's element
    type), whether the field may be null, and whether it is a list."""

    scalar: type
    optional: bool = False
    listed: bool = False

    def check(self, value, key: str):
        """The record value for a decoded value; ValueError if its type is
        wrong.  A list becomes a tuple, and an int is taken for a float."""
        if value is None:
            if self.optional:
                return None
            raise ValueError(f"{key} must not be null")
        scalar = self.scalar
        if not self.listed:
            if type(value) is scalar:
                return value
            return _coerce(scalar, value, key)
        if type(value) is not list:
            raise ValueError(f"{key} must be a list, got {value!r}")
        return tuple(v if type(v) is scalar else _coerce(scalar, v, key)
                     for v in value)

    def to_cell(self, value) -> str:
        if value is None:
            return ""
        fmt = _FORMAT[self.scalar]
        if self.listed:
            return "[" + ";".join(_escape(fmt(v)) for v in value) + "]"
        return fmt(value)

    def from_cell(self, text: str, key: str):
        """The record value for a CSV cell.  A parsed scalar has the kind's
        type by construction; null and lists go through :meth:`check`."""
        if text == "":
            return self.check(None, key)
        if not self.listed:
            return self.parse(text, key)
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"{key} must be a bracketed list, got {text!r}")
        return self.check([self.parse(t, key)
                           for t in _split_list(text[1:-1], key)], key)

    def parse(self, text: str, key: str):
        """One scalar parsed from CSV text; ValueError naming the key."""
        try:
            return _PARSE[self.scalar](text)
        except ValueError:
            raise ValueError(f"{key} must be {self.scalar.__name__}, "
                             f"got {text!r}") from None


def _coerce(scalar: type, value, key: str):
    """An int taken for a float; any other type mismatch is an error."""
    if scalar is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{key} must be {scalar.__name__}, got {value!r}")


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bad boolean {text!r}")
    return text == "true"


_FORMAT = {int: str, float: repr, str: str,
           bool: lambda b: "true" if b else "false"}
_PARSE = {int: int, float: float, str: str, bool: _parse_bool}

_INT, _FLOAT, _BOOL = _Kind(int), _Kind(float), _Kind(bool)
_OPT_INT, _OPT_BOOL, _OPT_STR = (_Kind(t, optional=True)
                                 for t in (int, bool, str))
_OPT_INT_LIST = _Kind(int, optional=True, listed=True)
_STR_LIST = _Kind(str, listed=True)

# The one spelling of the trial-record schema: (JSON key, TrialRecord
# attribute, kind).  Its order is the JSONL key order and the CSV column
# order; in CSV the _SPREAD field fills the columns betti0..betti{w-1}.
_RECORD_FIELDS = (
    ("trial", "trial_index", _INT),
    ("p", "p", _FLOAT),
    ("edges", "edge_count", _INT),
    ("p_index", "p_index", _INT),
    ("seed", "seed", _INT),
    ("connected", "complex_connected", _BOOL),
    ("empty", "empty_complex", _BOOL),
    ("clique_number", "clique_number", _OPT_INT),
    ("neighborliness", "neighborliness", _OPT_INT),
    ("closed_sets", "closed_set_count", _OPT_INT),
    ("retract_dim", "retract_dimension", _OPT_INT),
    ("homology_source", "homology_source", _OPT_STR),
    ("torsion_seen", "torsion_seen", _OPT_BOOL),
    ("betti", "betti", _OPT_INT_LIST),
    ("certificates", "certificates", _OPT_INT_LIST),
    ("errors", "errors", _STR_LIST),
)
_RECORD_KEYS = frozenset(key for key, _, _ in _RECORD_FIELDS)
_SPREAD = "betti"


def records_to_jsonl(records: Sequence[TrialRecord]) -> str:
    return "".join(
        json.dumps({key: getattr(r, attr) for key, attr, _ in _RECORD_FIELDS},
                   separators=(",", ":")) + "\n"
        for r in records)


def records_from_jsonl(text: str) -> list[TrialRecord]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc}", lineno) from None
        if not isinstance(d, dict):
            raise FormatError("record line is not an object", lineno)
        if d.keys() != _RECORD_KEYS:
            raise FormatError(
                f"record schema mismatch (missing "
                f"{sorted(_RECORD_KEYS - d.keys())}, unexpected "
                f"{sorted(d.keys() - _RECORD_KEYS)})", lineno)
        try:
            out.append(TrialRecord(**{attr: kind.check(d[key], key)
                                      for key, attr, kind in _RECORD_FIELDS}))
        except ValueError as exc:
            raise FormatError(f"bad record value: {exc}", lineno) from None
    return out


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace(";", "\\;")


def _split_list(inner: str, key: str) -> list[str]:
    """The elements of a list cell's inside, split on unescaped ';'."""
    if not inner:
        return []
    parts, cur = [], []
    chars = iter(inner)
    for ch in chars:
        if ch == "\\":
            ch = next(chars, None)
            if ch is None:
                raise ValueError(f"{key} has a dangling escape in {inner!r}")
            cur.append(ch)
        elif ch == ";":
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _csv_header(width: int) -> list[str]:
    header = []
    for key, _, _ in _RECORD_FIELDS:
        if key == _SPREAD:
            header.extend(f"{key}{k}" for k in range(width))
        else:
            header.append(key)
    return header


def records_to_csv(records: Sequence[TrialRecord]) -> str:
    widths = {len(r.betti) for r in records if r.betti is not None}
    if len(widths) > 1:
        raise ValueError(f"records carry mixed betti widths {sorted(widths)}")
    width = widths.pop() if widths else 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_csv_header(width))
    for r in records:
        row = []
        for key, attr, kind in _RECORD_FIELDS:
            value = getattr(r, attr)
            if key != _SPREAD:
                cell = kind.to_cell(value)
                if cell == "[]" and value:
                    raise ValueError(f"{key} holds only an empty string, "
                                     "which CSV writes as the empty list")
                row.append(cell)
            elif value is None:
                row.extend([""] * width)
            else:
                row.extend(map(_FORMAT[kind.scalar], value))
        writer.writerow(row)
    return buf.getvalue()


def records_from_csv(text: str) -> list[TrialRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty CSV") from None
    width = len(header) - len(_RECORD_FIELDS) + 1
    if width < 0 or header != _csv_header(width):
        raise FormatError("unexpected CSV header")
    out = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(f"expected {len(header)} cells, got {len(row)}",
                              reader.line_num)
        cells = iter(row)
        values = {}
        try:
            for key, attr, kind in _RECORD_FIELDS:
                if key != _SPREAD:
                    values[attr] = kind.from_cell(next(cells), key)
                    continue
                spread = [next(cells) for _ in range(width)]
                values[attr] = kind.check(
                    [kind.parse(c, key) for c in spread]
                    if any(spread) else None, key)
        except ValueError as exc:
            raise FormatError(f"bad cell: {exc}", reader.line_num) from None
        out.append(TrialRecord(**values))
    return out


def write_records(obj: Union[Sequence[TrialRecord], SurveySummary],
                  path: str, fmt: str = "jsonl") -> None:
    """Write trial records or a summary to disk.

    Records support ``jsonl`` (canonical, loss-free) and ``csv`` (flattened
    Betti columns).  A summary is written as one JSON document regardless
    of format.
    """
    if fmt not in ("jsonl", "csv"):
        raise FormatError(f"unknown format {fmt!r}; use jsonl or csv")
    if isinstance(obj, SurveySummary):
        text = json.dumps(obj.to_json_dict(), indent=2) + "\n"
    elif fmt == "jsonl":
        text = records_to_jsonl(obj)
    else:
        text = records_to_csv(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_records(path: str, fmt: Optional[str] = None) -> list[TrialRecord]:
    """Read trial records back; format inferred from the suffix by default."""
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise FormatError(f"unknown format {fmt!r}; use jsonl or csv")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return records_from_csv(text) if fmt == "csv" else records_from_jsonl(text)
