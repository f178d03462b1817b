"""Tests of the benchmark's independent checkers and tracer on known graphs.

Run with ``python3 -m pytest bench/test_checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import tracing  # noqa: E402
import nbcomplex  # noqa: E402


def complete(n):
    return n, list(combinations(range(n), 2))


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def xn(k):
    """Clique 0..k-1; partner k+i is adjacent to every clique vertex but i."""
    return 2 * k, (list(combinations(range(k), 2))
                   + [(i, k + j) for i in range(k) for j in range(k) if i != j])


def omega(n, edges):
    return max(len(c) for c in checks.maximal_cliques(n, edges))


def certified(n, edges):
    return checks.certificate_dims(checks.adjacency_masks(n, edges),
                                   checks.maximal_cliques(n, edges))


def betti(n, edges, max_dim, prime):
    return checks.reduced_betti(checks.adjacency_masks(n, edges), max_dim, prime)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complete_graph_is_a_sphere(n):
    g = complete(n)
    adj = checks.adjacency_masks(*g)
    sphere = tuple(int(k == n - 2) for k in range(n - 1))
    for prime in (2, 3, checks.LARGE_PRIME):
        assert betti(*g, n - 2, prime) == sphere
    assert checks.reduced_euler(adj) == (-1) ** (n - 2)
    assert checks.complex_dimension(adj) == n - 2
    assert checks.neighborliness(n, adj) == n - 1
    assert omega(*g) == n
    assert certified(*g) == [n - 2]


def test_five_cycle_is_a_circle_without_certificates():
    g = cycle(5)
    adj = checks.adjacency_masks(*g)
    for prime in (2, checks.LARGE_PRIME):
        assert betti(*g, 1, prime) == (0, 1)
    assert checks.reduced_euler(adj) == -1
    assert checks.complex_components(adj) == 1
    assert checks.neighborliness(5, adj) == 1
    assert omega(*g) == 2
    assert certified(*g) == []


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_complete_bipartite_is_two_simplices(a, b):
    g = complete_bipartite(a, b)
    adj = checks.adjacency_masks(*g)
    top = max(a, b) - 1
    assert betti(*g, top, 2) == (1,) + (0,) * top
    assert checks.reduced_euler(adj) == 1
    assert checks.complex_components(adj) == 2
    assert checks.neighborliness(a + b, adj) == 1
    assert omega(*g) == 2
    # an edge is certified exactly when one endpoint has no other neighbor
    assert certified(*g) == ([0] * (a * b) if min(a, b) == 1 else [])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_partnered_clique_matches_the_package(k):
    g = xn(k)
    n, edges = g
    graph = nbcomplex.xn_graph(k)
    assert sorted(graph.edges()) == sorted(edges)
    adj = checks.adjacency_masks(n, edges)
    result, _ = nbcomplex.graph_homology(graph)
    assert not any(result.torsion)
    dim = checks.complex_dimension(adj)
    assert betti(n, edges, dim, 2) == result.betti
    assert betti(n, edges, dim, checks.LARGE_PRIME) == result.betti
    assert (sum((-1) ** i * b for i, b in enumerate(result.betti))
            == checks.reduced_euler(adj))
    assert checks.neighborliness(n, adj) == nbcomplex.neighborliness(graph)
    assert omega(n, edges) == k
    assert certified(n, edges) == [
        c.sphere_dim for c in nbcomplex.find_sphere_certificates(graph)]


def test_torsion_shows_over_gf2_only():
    # six-vertex projective plane: H_1 = Z/2, so GF(2) sees degrees 1 and 2
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
              (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    masks = [sum(1 << v for v in f) for f in facets]
    assert checks.reduced_betti(masks, 2, 2) == (0, 1, 1)
    assert checks.reduced_betti(masks, 2, checks.LARGE_PRIME) == (0, 0, 0)
    assert checks.field2_from_integer([0, 0, 0], [(), (2,), ()]) == [0, 1, 1]
    assert checks.field2_from_integer([1, 0], [(3,), (4, 6)]) == [1, 2]


def test_empty_graph_has_the_empty_complex():
    adj = checks.adjacency_masks(4, [])
    assert checks.complex_dimension(adj) == -1
    assert checks.reduced_euler(adj) == 0
    assert checks.complex_components(adj) == 0
    assert checks.neighborliness(4, adj) == 0


def test_min_hitting_set():
    assert checks.min_hitting_set_size(4, [0b0011, 0b0110, 0b1100]) == 2
    assert checks.min_hitting_set_size(3, [0b001, 0b010, 0b100]) == 3
    assert checks.min_hitting_set_size(3, [0b111]) == 1


def test_tracer_counts_layers_and_restores_the_package():
    original = nbcomplex.homology.graph_homology
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nbcomplex.cli.graph_homology is not original
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nbcomplex.cli.main(["homology", "--family", "complete:4",
                                       "--coeff", "both"])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(buf.getvalue())["betti"] == [0, 0, 1]
    assert nbcomplex.cli.graph_homology is original
    assert nbcomplex.homology.graph_homology is original
    m = tracer.metrics(rounds=1)
    assert m["homology.faces"]["value"] > 0
    assert m["homology.snf_rank"]["value"] > 0
    assert m["complexes.retract_builds"]["value"] == 1
    assert 0 < m["homology.smith_normal_form.s"]["value"] \
        <= tracer.busy["cli.main"]
    assert m["cli.main.self_s"]["value"] < tracer.busy["cli.main"]


def test_benchmark_file_names_every_traced_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    reported["runtime.traced_ops_per_s"] = "1/s"
    assert declared == reported
