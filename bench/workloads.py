"""The benchmark's workloads: seeded inputs, one timed round, and checks.

A round is one pass over a workload's fixed input set, made through the
package's public entry points the way a user would call them.  An op is one
survey trial or one CLI call; ``times`` collects each op's wall time.
Checks compare the outputs of a round with the independent recomputations
in ``checks`` and return a list of problems (empty when all is well).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import replace
from pathlib import Path
from statistics import fmean
from time import perf_counter

import checks
from nbcomplex import cli, experiments
from nbcomplex.experiments import ExperimentConfig
from nbcomplex.graphs import derive_trial_seed, gnp_sample


@contextlib.contextmanager
def timed_trials(times: list):
    """Time every survey trial: wrap the trial function run_survey calls."""
    inner = experiments.run_trial

    def timed(*args):
        started = perf_counter()
        try:
            return inner(*args)
        finally:
            times.append(perf_counter() - started)

    experiments.run_trial = timed
    try:
        yield
    finally:
        experiments.run_trial = inner


def _graph(n, p, seed):
    """The sampled graph as (adjacency masks, edge list)."""
    edges = list(gnp_sample(n, p, seed).edges())
    return checks.adjacency_masks(n, edges), edges


class Survey:
    """Common part of the three survey workloads."""

    cfg: ExperimentConfig

    @property
    def ops(self) -> int:
        return len(self.cfg.p_grid) * self.cfg.trials

    def failed(self, result) -> int:
        return sum(1 for r in result["records"] if r.errors)

    def same(self, a, b) -> bool:
        return a["records"] == b["records"]

    def check(self, result) -> list[str]:
        problems = []
        for r in result["records"]:
            if not r.errors:
                problems += [f"p={r.p} trial {r.trial_index}: {msg}"
                             for msg in self.check_record(r)]
        problems += self.check_summary(result["records"], result["summary"])
        return problems

    def check_record(self, r) -> list[str]:
        cfg = self.cfg
        out = []
        if r.seed != derive_trial_seed(cfg.master_seed, r.p_index,
                                       r.trial_index):
            return ["trial seed is not the derived one"]
        adj, edges = _graph(cfg.n, r.p, r.seed)
        if r.edge_count != len(edges):
            out.append(f"edge count {r.edge_count} != {len(edges)}")
        dim = checks.complex_dimension(adj)
        if r.empty_complex != (dim < 0):
            out.append(f"empty flag {r.empty_complex} for dimension {dim}")
        if r.complex_connected != (checks.complex_components(adj) <= 1):
            out.append(f"connected flag {r.complex_connected} is wrong")
        if r.clique_number is not None or r.certificates is not None:
            cliques = checks.maximal_cliques(cfg.n, edges)
        if r.clique_number is not None:
            omega = max(len(c) for c in cliques)
            if r.clique_number != omega:
                out.append(f"clique number {r.clique_number} != {omega}")
        if r.neighborliness is not None:
            nbl = checks.neighborliness(cfg.n, adj)
            if r.neighborliness != nbl:
                out.append(f"neighborliness {r.neighborliness} != {nbl}")
        if r.certificates is not None:
            dims = checks.certificate_dims(adj, cliques)
            if list(r.certificates) != dims:
                out.append(f"certificates {r.certificates} != {dims}")
        if r.betti is not None:
            out += self.check_betti(r, adj, dim)
        return out

    def check_betti(self, r, adj, dim) -> list[str]:
        cfg = self.cfg
        betti = list(r.betti)
        out = []
        if len(betti) != cfg.max_dim + 1:
            return [f"betti width {len(betti)} for max_dim {cfg.max_dim}"]
        if cfg.max_dim >= dim:
            euler = sum((-1) ** k * b for k, b in enumerate(betti))
            if euler != checks.reduced_euler(adj):
                out.append(f"betti {betti} miss the Euler characteristic "
                           f"{checks.reduced_euler(adj)}")
        # Over GF(2) the ranks see 2-torsion too, so a record with torsion
        # is checked over a large prime field instead.
        prime = checks.LARGE_PRIME if r.torsion_seen else 2
        ranks = list(checks.reduced_betti(adj, cfg.max_dim, prime))
        if betti != ranks:
            out.append(f"betti {betti} != independent ranks {ranks}")
        for d in r.certificates or ():
            if d <= cfg.max_dim and betti[d] < 1:
                out.append(f"certified sphere in dimension {d} but betti "
                           f"{betti}")
        return out

    def check_summary(self, records, summary) -> list[str]:
        out = []
        dims = self.cfg.max_dim + 1
        for s in summary.per_p:
            rows = [r for r in records if r.p_index == s.p_index]
            brows = [r.betti for r in rows if r.betti is not None]
            crows = [r.certificates for r in rows if r.certificates is not None]
            want_betti = ([fmean(b[k] for b in brows) for k in range(dims)]
                          if brows else None)
            want_certs = ([fmean(k in c for c in crows) for k in range(dims)]
                          if crows else None)
            for label, got, want in (("betti_mean", s.betti_mean, want_betti),
                                     ("certificate_freq", s.certificate_freq,
                                      want_certs)):
                if (got is None) != (want is None) or (
                        want is not None and not all(
                            math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                            for a, b in zip(got, want, strict=True))):
                    out.append(f"summary {label} at p={s.p}: {got} != {want}")
            if s.trials != len(rows) or s.betti_trials != len(brows):
                out.append(f"summary trial counts at p={s.p} are wrong")
        return out

    def check_jobs(self, result) -> list[str]:
        """A two-worker run of the first two trials per probability must
        give the same bytes as the serial run."""
        small = replace(self.cfg, trials=2)
        parallel = experiments.run_survey(small, jobs=2)
        serial = [r for r in result["records"] if r.trial_index < 2]
        if (experiments.records_to_jsonl(parallel)
                != experiments.records_to_jsonl(serial)):
            return ["jobs=2 records differ from the serial ones"]
        return []


class Sweep(Survey):
    """Full-homology Betti sweep over the 11-point grid, endpoints kept."""

    def __init__(self, seed: int):
        self.cfg = ExperimentConfig(
            n=6, p_grid=tuple(i / 10 for i in range(11)), trials=400,
            master_seed=seed, max_dim=4, homology=True)

    def run_round(self, out_dir: Path, times: list):
        c = self.cfg
        with timed_trials(times):
            records, summary = experiments.betti_sweep(
                c.n, c.p_grid, c.trials, c.master_seed, c.max_dim)
        return {"records": records, "summary": summary}

    def check_record(self, r) -> list[str]:
        out = super().check_record(r)
        n = self.cfg.n
        if r.p == 0.0 and (not r.empty_complex or any(r.betti)):
            out.append(f"p = 0 is not the empty complex: {r.betti}")
        if r.p == 1.0:
            sphere = tuple(int(k == n - 2) for k in range(self.cfg.max_dim + 1))
            if r.betti != sphere:
                out.append(f"K_{n} gives {r.betti}, not S^{n - 2}")
        return out


class Connectivity(Survey):
    """Capped homology with clique numbers and sphere certificates."""

    def __init__(self, seed: int):
        self.cfg = ExperimentConfig(
            n=12, p_grid=(0.35, 0.4), trials=360, master_seed=seed,
            max_dim=3, homology=True, certificates=True, clique_stats=True)

    def run_round(self, out_dir: Path, times: list):
        with timed_trials(times):
            records = experiments.run_survey(self.cfg)
        return {"records": records,
                "summary": experiments.aggregate(records, self.cfg)}


class Features(Survey):
    """Homology off: neighborliness, cliques, certificates, and the
    record and summary files written and read back."""

    def __init__(self, seed: int):
        self.cfg = ExperimentConfig(
            n=30, p_grid=(0.3, 0.4, 0.5, 0.6), trials=130, master_seed=seed,
            homology=False, neighborliness=True, certificates=True,
            clique_stats=True)

    def run_round(self, out_dir: Path, times: list):
        with timed_trials(times):
            records = experiments.run_survey(self.cfg)
        summary = experiments.aggregate(records, self.cfg)
        jsonl, csv, summ = (str(out_dir / name) for name in
                            ("records.jsonl", "records.csv", "summary.json"))
        experiments.write_records(records, jsonl, "jsonl")
        experiments.write_records(records, csv, "csv")
        experiments.write_records(summary, summ)
        with open(summ, encoding="utf-8") as fh:
            summary_text = fh.read()
        return {"records": records, "summary": summary,
                "from_jsonl": experiments.read_records(jsonl),
                "from_csv": experiments.read_records(csv),
                "summary_text": summary_text}

    def check(self, result) -> list[str]:
        out = super().check(result)
        records = result["records"]
        for fmt in ("jsonl", "csv"):
            if result[f"from_{fmt}"] != records:
                out.append(f"{fmt} round trip changed the records")
        written = json.loads(result["summary_text"])
        if written != json.loads(json.dumps(result["summary"].to_json_dict())):
            out.append("summary file does not match the summary")
        return out


class CliHomology:
    """In-process ``nbcomplex homology --gnp N P SEED --coeff both`` calls.

    Each graph has exactly round(p * C(n, 2)) edges: candidate seeds come
    from the run seed and the first whose G(n, p) sample has that many
    edges is kept, which samples G(n, m) uniformly and keeps the binomial
    swing of the edge count out of the run-to-run spread.
    """

    STRATA = ((11, 0.5, 90), (12, 0.45, 90), (13, 0.4, 90))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.graphs = []
        for n, p, count in self.STRATA:
            edges = round(p * n * (n - 1) / 2)
            for _ in range(count):
                s = rng.getrandbits(48)
                while gnp_sample(n, p, s).edge_count != edges:
                    s = rng.getrandbits(48)
                self.graphs.append((n, p, s))
        self.argvs = [["homology", "--gnp", str(n), str(p), str(s),
                       "--coeff", "both"] for n, p, s in self.graphs]

    @property
    def ops(self) -> int:
        return len(self.argvs)

    def run_round(self, out_dir: Path, times: list):
        outputs = []
        for argv in self.argvs:
            buf = io.StringIO()
            started = perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            times.append(perf_counter() - started)
            outputs.append((code, buf.getvalue()))
        return outputs

    def failed(self, result) -> int:
        return sum(1 for code, _ in result if code != 0)

    def same(self, a, b) -> bool:
        return a == b

    def check(self, result) -> list[str]:
        problems = []
        for (n, p, s), (code, text) in zip(self.graphs, result, strict=True):
            if code == 0:
                problems += [f"--gnp {n} {p} {s}: {msg}"
                             for msg in self.check_output(n, p, s, text)]
        return problems

    def check_output(self, n, p, s, text) -> list[str]:
        out = json.loads(text)
        adj, _ = _graph(n, p, s)
        dim = checks.complex_dimension(adj)
        betti, torsion, field2 = out["betti"], out["torsion"], out["field2"]
        if len(betti) != max(dim, 0) + 1 or out["truncated"]:
            return [f"expected {max(dim, 0) + 1} untruncated dimensions, "
                    f"got {out}"]
        problems = []
        euler = sum((-1) ** k * b for k, b in enumerate(betti))
        if euler != checks.reduced_euler(adj):
            problems.append(f"betti {betti} miss the Euler characteristic "
                            f"{checks.reduced_euler(adj)}")
        if field2 != checks.field2_from_integer(betti, torsion):
            problems.append(f"GF(2) {field2} breaks universal coefficients "
                            f"for betti {betti}, torsion {torsion}")
        ranks = list(checks.reduced_betti(adj, max(dim, 0), 2))
        if field2 != ranks:
            problems.append(f"GF(2) {field2} != independent ranks {ranks}")
        return problems

    def check_jobs(self, result) -> list[str]:
        return []  # one graph per call: there are no workers to compare


WORKLOADS = {"sweep": Sweep, "connectivity": Connectivity,
             "features": Features, "cli_homology": CliHomology}
