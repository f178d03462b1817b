"""Acceptance suite: one test per shipped guarantee, with stated budgets.

Each test is self-contained apart from two module-scoped corpora shared by
the middle criteria: every connected graph on at most five vertices plus a
fixed grid of seeded random samples.  Wall-clock budgets appear as explicit
assertions wherever the guarantee includes one.

One test asserts a desk-scale shrinking trend for the neighborliness
failure bound that provably does not hold at these sizes (the binomial
factor still dominates; the crossover sits far above t = 20).  It is kept
red on purpose rather than weakened: the companion bound in the same test
does reach its target.
"""

from __future__ import annotations

import itertools
import statistics
import time
from fractions import Fraction

import pytest

from nbcomplex import (ExperimentConfig, SimplicialComplex, betti_sweep,
                       biclique_count_bound, bound_comparison,
                       closed_set_poset, comparisons_csv, complete_graph,
                       contains_complete_bipartite, find_sphere_certificates,
                       gnp_sample, graph_homology, homology_integer,
                       is_strictly_balanced, lovasz_retract, maximal_cliques,
                       neighborhood_complex, neighborliness,
                       neighborliness_failure_bound,
                       nonvanishing_exponent_window,
                       obstructed_clique_extension, records_to_jsonl,
                       run_survey, subgraph_threshold_exponent,
                       witness_is_valid, xn_graph)

from test_homology import own_faces, rational_rank


# ---------------------------------------------------------------------------
# shared corpus pipelines


@pytest.fixture(scope="module")
def corpus(connected_corpus, sampled_corpus):
    return connected_corpus + sampled_corpus


@pytest.fixture(scope="module")
def corpus_pipelines(corpus):
    """Both homology pipelines, run independently for every corpus graph.

    The direct pipeline never sees the poset, the retract pipeline never
    sees the neighborhood complex; route selection is deliberately not
    involved anywhere here.
    """
    start = time.monotonic()
    entries = []
    for g in corpus:
        direct = homology_integer(own_faces(neighborhood_complex(g)))
        poset = closed_set_poset(g)
        retract = homology_integer(own_faces(
            SimplicialComplex.from_faces(len(poset.elements),
                                         lovasz_retract(poset))))
        entries.append((g, poset, direct, retract))
    elapsed = time.monotonic() - start
    return entries, elapsed


def padded(seq, length, fill):
    return tuple(seq) + (fill,) * (length - len(seq))


# ---------------------------------------------------------------------------
# criterion 1


def test_complete_graph_ladder_is_a_sphere_in_both_coefficient_systems():
    start = time.monotonic()
    for m in range(3, 9):
        result, _ = graph_homology(complete_graph(m))
        want = tuple(1 if k == m - 2 else 0 for k in range(m - 1))
        assert result.betti == want
        assert result.field2 == want
        assert result.torsion == ((),) * (m - 1)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 2


def test_retract_homology_matches_direct_homology_on_corpus(corpus_pipelines):
    entries, build_time = corpus_pipelines
    start = time.monotonic()
    assert len(entries) >= 200
    for g, _, direct, retract in entries:
        width = max(len(direct.betti), len(retract.betti))
        assert padded(direct.betti, width, 0) == \
            padded(retract.betti, width, 0), f"betti mismatch on {g}"
        assert padded(direct.torsion, width, ()) == \
            padded(retract.torsion, width, ()), f"torsion mismatch on {g}"
    assert build_time + (time.monotonic() - start) < 300.0


# ---------------------------------------------------------------------------
# criterion 3


def test_absent_bipartite_pairs_bound_the_poset_height(corpus_pipelines):
    entries, _ = corpus_pipelines
    for g, poset, _, _ in entries:
        for a in range(1, 7):
            for b in range(1, 8 - a):
                if contains_complete_bipartite(g, a, b) is None:
                    assert poset.height <= a + b - 3, \
                        f"height {poset.height} on {g} without ({a},{b})"


# ---------------------------------------------------------------------------
# criterion 4


def test_neighborliness_level_forces_low_dimensions_to_vanish(corpus_pipelines):
    entries, _ = corpus_pipelines
    for g, _, direct, _ in entries:
        level = neighborliness(g)
        for k in range(min(level - 1, len(direct.betti))):
            assert direct.betti[k] == 0, f"betti_{k} nonzero on {g}"
            assert direct.torsion[k] == (), f"torsion_{k} nonzero on {g}"


# ---------------------------------------------------------------------------
# criterion 5


def test_sphere_certificates_are_sound_and_extensions_validate():
    start = time.monotonic()
    checked = 0
    cert_count = 0
    ext_count = 0
    for n in (6, 8, 10, 12):
        for pi, p in enumerate((0.3, 0.5, 0.7)):
            for t in range(9):
                g = gnp_sample(n, p, 7_700_000 + 1000 * n + 100 * pi + t)
                checked += 1
                certs = find_sphere_certificates(g)
                if certs:
                    result, _ = graph_homology(g)
                    for cert in certs:
                        assert cert.validated
                        assert result.betti[cert.sphere_dim] >= 1, \
                            f"certified dim {cert.sphere_dim} vanished on {g}"
                    cert_count += len(certs)
                for clique in maximal_cliques(g):
                    witness = obstructed_clique_extension(g, clique)
                    if witness is not None:
                        assert witness_is_valid(g, witness)
                        ext_count += 1
    assert checked == 108
    # the corpus genuinely exercises both branches
    assert cert_count > 0 and ext_count > 0
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# criterion 6


def _naive_reduced_betti(g) -> tuple[int, ...]:
    """All-subsets chain complex straight from the adjacency relation.

    Enumerates every vertex subset, keeps those with a common neighbor,
    builds dense boundary matrices, and reads reduced Betti numbers off
    rational ranks.  Shares no code with the library pipelines.
    """
    faces: dict[int, list[tuple[int, ...]]] = {}
    for size in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if any(all(g.has_edge(w, v) for v in sub) for w in range(g.n)):
                faces.setdefault(size - 1, []).append(sub)
    if not faces:
        return ()
    top = max(faces)
    ranks = {0: 1}  # the augmentation row of ones has rank 1
    for k in range(1, top + 1):
        rows = faces[k - 1]
        index = {f: i for i, f in enumerate(rows)}
        matrix = [[0] * len(faces[k]) for _ in rows]
        for j, face in enumerate(faces[k]):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                matrix[index[sub]][j] = (-1) ** drop
        ranks[k] = rational_rank(matrix)
    ranks[top + 1] = 0
    return tuple(len(faces[k]) - ranks[k] - ranks[k + 1]
                 for k in range(top + 1))


def test_pipeline_homology_matches_all_subsets_oracle(corpus_pipelines):
    entries, _ = corpus_pipelines
    small = [(g, direct) for g, _, direct, _ in entries if g.n <= 7]
    assert len(small) >= 700
    for g, direct in small:
        oracle = _naive_reduced_betti(g)
        width = max(len(oracle), len(direct.betti))
        assert padded(oracle, width, 0) == padded(direct.betti, width, 0), \
            f"oracle disagrees on {g}"


# ---------------------------------------------------------------------------
# criterion 7


def test_midsize_random_graphs_have_connected_complexes():
    start = time.monotonic()
    cfg = ExperimentConfig(n=50, p_grid=(0.5,), trials=100,
                           master_seed=20260814, homology=False)
    records = run_survey(cfg)
    connected = sum(1 for r in records if r.complex_connected)
    assert connected / len(records) >= 0.95
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# criterion 8


def test_exponent_window_endpoints_reconstruct_from_densities():
    for k in range(1, 7):
        window = nonvanishing_exponent_window(k)
        assert window.lower == Fraction(-2, k + 1)
        assert window.upper == Fraction(-4, 3 * (k + 1))
        clique = complete_graph(k + 2)
        assert is_strictly_balanced(clique)
        assert subgraph_threshold_exponent(clique) == window.lower
        if k + 2 <= 7:
            partnered = xn_graph(k + 2)
            assert is_strictly_balanced(partnered, vertex_cap=14)
            assert subgraph_threshold_exponent(
                partnered, vertex_cap=14) == window.upper


# ---------------------------------------------------------------------------
# criterion 9


def test_first_moment_bounds_shrink_along_the_desk_scale_schedule():
    start = time.monotonic()
    pair_bounds = [biclique_count_bound(2 ** t, -(-41 * t // 20),
                                        -(-41 * t // 20), 0.5)
                   for t in range(10, 21)]
    assert all(a > b for a, b in zip(pair_bounds, pair_bounds[1:]))
    assert pair_bounds[-1] < 1e-3
    assert time.monotonic() - start < 1.0

    # The matching schedule for the neighborliness failure bound: level
    # 0.9 t at 2^t vertices.  At these sizes the binomial coefficient grows
    # much faster than the no-common-neighbor factor decays (the crossover
    # is near t = 140), so the asserted trend does not hold; this stays red
    # deliberately instead of being tuned until it passes.
    fail_bounds = [neighborliness_failure_bound(2 ** t, 9 * t // 10, 0.5)
                   for t in range(10, 21)]
    assert all(a > b for a, b in zip(fail_bounds, fail_bounds[1:])), \
        f"bound rises at desk scale: {fail_bounds[0]:.3e} -> {fail_bounds[-1]:.3e}"
    assert fail_bounds[-1] < 1e-3


# ---------------------------------------------------------------------------
# criterion 10


def test_chromatic_number_dominates_both_lower_bounds_on_samples(capsys):
    start = time.monotonic()
    records = []
    for t in range(30):
        g = gnp_sample(11, 0.5, 5_500_000 + t)
        records.append(bound_comparison(g))
    for r in records:
        assert r.chromatic_number is not None
        assert r.clique_number is not None
        assert r.neighborliness_bound is not None
        assert r.chromatic_number >= r.clique_number
        assert r.chromatic_number >= r.neighborliness_bound
    csv_text = comparisons_csv(records)
    assert len(csv_text.strip().split("\n")) == 31
    med_nbound = statistics.median(r.neighborliness_bound for r in records)
    med_omega = statistics.median(r.clique_number for r in records)
    med_chi = statistics.median(r.chromatic_number for r in records)
    with capsys.disabled():
        print(f"[medians: chromatic={med_chi} clique={med_omega} "
              f"neighborliness-bound={med_nbound}] ", end="", flush=True)
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# criterion 11


def test_survey_output_is_byte_identical_across_reruns_and_job_counts():
    cfg = ExperimentConfig(n=8, p_grid=(0.25, 0.5, 0.75), trials=5,
                           master_seed=123456, max_dim=4)
    first = records_to_jsonl(run_survey(cfg, jobs=1))
    again = records_to_jsonl(run_survey(cfg, jobs=1))
    fanned = records_to_jsonl(run_survey(cfg, jobs=8))
    assert first.encode() == again.encode()
    assert first.encode() == fanned.encode()


# ---------------------------------------------------------------------------
# criterion 12


def test_betti_sweep_vanishes_at_trivial_densities_and_reports_peaks():
    start = time.monotonic()
    grid = tuple(round(0.1 * i, 1) for i in range(11))
    records, summary = betti_sweep(n=8, p_grid=grid, trials=50,
                                   master_seed=31337, max_dim=6)
    assert len(records) == 11 * 50
    low = summary.per_p[0]
    high = summary.per_p[-1]
    assert low.p == 0.0 and high.p == 1.0
    for k in range(6):
        assert low.betti_mean[k] == 0.0
        assert high.betti_mean[k] == 0.0
    # the full-density complex is a 6-sphere, so dimension six is the
    # one place mass is allowed to sit at p = 1
    assert high.betti_mean[6] == 1.0
    assert summary.local_maxima is not None
    assert len(summary.local_maxima) == 7
    assert all(count >= 0 for count in summary.local_maxima)
    assert time.monotonic() - start < 600.0
