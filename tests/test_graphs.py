"""Graph construction, families, seeded sampling, and subgraph detectors."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nbcomplex import (Graph, ParseError, ResourceCapError, SubgraphWitness,
                       clique_number, complete_bipartite_graph, complete_graph,
                       contains_complete_bipartite, contains_xn, cycle_graph,
                       density, derive_trial_seed, from_family_spec,
                       gnp_sample, is_strictly_balanced, kneser_graph,
                       make_named_graph, maximal_cliques, maximum_clique,
                       parse_edge_list, path_graph, serialize_edge_list,
                       witness_is_valid, xn_graph)
from nbcomplex import graphs
from nbcomplex.seeds import (MASK64, lane_ones, mix64, splitmix64,
                             splitmix64_lanes, unit_threshold)


def small_graphs(max_n=8):
    """Hypothesis strategy for arbitrary graphs on up to max_n vertices."""

    def build(n, mask):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        return Graph.from_edges(n, edges)

    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


# ---------------------------------------------------------------------------
# construction and text format


def test_from_edges_rejects_out_of_range_and_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_duplicate_and_reversed_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert list(g.edges()) == [(0, 1)]


def test_edges_enumerate_in_lexicographic_order():
    g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


def test_masks_are_the_one_adjacency_field():
    g = gnp_sample(12, 0.5, 7)
    twin = Graph.from_edges(12, list(g.edges()))
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "masks"]
    assert g.masks == tuple(sum(1 << w for w in g.neighbors(v))
                           for v in range(12))
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    pickled = pickle.dumps(g)
    assert pickled == pickle.dumps(twin)
    back = pickle.loads(pickled)
    assert back == g and back.masks == g.masks
    with pytest.raises(AttributeError):
        g.masks = ()


@pytest.mark.parametrize("v", [-1, -12, 12, 40])
def test_vertex_queries_reject_out_of_range_vertices(v):
    # on the masks tuple, index -1 would quietly read the last vertex
    g = gnp_sample(12, 0.5, 7)
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(v)
    with pytest.raises(ValueError, match="out of range"):
        g.degree(v)
    with pytest.raises(ValueError, match="out of range"):
        g.has_edge(0, v)
    with pytest.raises(ValueError, match="out of range"):
        g.has_edge(v, 0)


@settings(max_examples=60)
@given(small_graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_parse_edge_list_accepts_comments_and_blank_lines():
    text = "# a triangle\nn 3\n\n0 1\n1 2\n# done\n0 2\n"
    assert parse_edge_list(text) == complete_graph(3)


def test_parse_edge_list_reports_offending_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("n 3\n0 1\n0 x\n")
    assert "line 3" in str(err.value)


def test_parse_edge_list_requires_header():
    with pytest.raises(ParseError):
        parse_edge_list("0 1\n")


@pytest.mark.parametrize("text, line, message", [
    ("n three\n0 1\n", 1, "bad vertex count 'three'"),
    ("# header next\nn -2\n", 2, "negative vertex count -2"),
    ("n 3\n0 1 2\n", 2, "expected 'u v', got '0 1 2'"),
    ("n 3\n0 1\n\n1 1\n", 4, "loop at vertex 1"),
    ("n 3\n0 3\n", 2, "edge (0, 3) out of range for n=3"),
    ("n 3\n-1 2\n", 2, "edge (-1, 2) out of range for n=3"),
    ("", None, "missing 'n <count>' header"),
    ("# only a comment\n\n", None, "missing 'n <count>' header"),
])
def test_parse_edge_list_names_the_error_and_its_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# named families


@pytest.mark.parametrize("m", range(1, 7))
def test_complete_graph_edge_count(m):
    g = complete_graph(m)
    assert g.n == m and g.edge_count == m * (m - 1) // 2


def test_cycle_and_path_shapes():
    c = cycle_graph(6)
    assert c.edge_count == 6 and all(c.degree(v) == 2 for v in range(6))
    p = path_graph(4)
    assert p.edge_count == 3 and p.degree(0) == 1 and p.degree(1) == 2
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert path_graph(1).n == 1


def test_complete_bipartite_structure():
    g = complete_bipartite_graph(3, 4)
    assert g.n == 7 and g.edge_count == 12
    for u in range(3):
        assert g.neighbors(u) == frozenset(range(3, 7))


def test_kneser_2_1_is_petersen():
    g = kneser_graph(2, 1)
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # triangle-free
    for u, v in g.edges():
        assert not g.neighbors(u) & g.neighbors(v)


@pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (2, 1), (2, 2), (3, 0),
                                  (3, 2), (5, 2)])
def test_kneser_matches_the_pairwise_definition(n, k):
    subsets = [set(c) for c in itertools.combinations(range(2 * n + k), n)]
    edges = [(i, j) for i, j in itertools.combinations(range(len(subsets)), 2)
             if not subsets[i] & subsets[j]]
    assert kneser_graph(n, k) == Graph.from_edges(len(subsets), edges)


def test_kneser_refuses_by_count_before_listing_subsets():
    # C(21, 7) = 116,280 sets would take tens of MB as frozensets; the
    # count alone decides, so kneser(20, 20) with C(60, 20) ~ 4.2e15 sets
    # is refused as fast
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="116280 vertices, beyond"):
            kneser_graph(7, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(ValueError,
                       match=f"kneser\\(20, 20\\) has {math.comb(60, 20)} "
                             "vertices, beyond the supported 50000"):
        kneser_graph(20, 20)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_xn_counts_and_density(k):
    g = xn_graph(k)
    assert g.n == 2 * k
    assert g.edge_count == 3 * k * (k - 1) // 2
    assert density(g) == Fraction(3 * (k - 1), 4)
    # partner k+i misses exactly clique vertex i
    for i in range(k):
        assert g.neighbors(k + i) == frozenset(range(k)) - {i}


def test_family_spec_parsing():
    assert from_family_spec("complete:4") == complete_graph(4)
    assert from_family_spec("complete_bipartite:2,3") == complete_bipartite_graph(2, 3)
    assert from_family_spec("kneser:2,1") == kneser_graph(2, 1)
    assert make_named_graph("xn", [3]) == xn_graph(3)
    for bad in ("nosuch:3", "complete", "complete:", "cycle:2,3", "complete:x"):
        with pytest.raises(ValueError):
            from_family_spec(bad)


# ---------------------------------------------------------------------------
# seeded sampling


def test_gnp_extremes():
    assert gnp_sample(6, 0.0, 1).edge_count == 0
    assert gnp_sample(6, 1.0, 1) == complete_graph(6)


def test_gnp_is_a_pure_function_of_its_seed():
    a = gnp_sample(30, 0.4, 777)
    b = gnp_sample(30, 0.4, 777)
    assert a == b
    assert gnp_sample(30, 0.4, 778) != a


def test_gnp_edge_fraction_tracks_p():
    g = gnp_sample(60, 0.3, 4242)
    pairs = 60 * 59 // 2
    mean = pairs * 0.3
    sd = math.sqrt(pairs * 0.3 * 0.7)
    assert abs(g.edge_count - mean) < 5 * sd


def test_gnp_rejects_bad_probability():
    with pytest.raises(ValueError):
        gnp_sample(5, -0.1, 0)
    with pytest.raises(ValueError):
        gnp_sample(5, 1.5, 0)


def test_gnp_rejects_bad_parameters_with_their_messages():
    with pytest.raises(ValueError, match="edge probability out of range: 1.5"):
        gnp_sample(5, 1.5, 0)
    with pytest.raises(ValueError,
                       match="vertex count must be nonnegative, got -1"):
        gnp_sample(-1, 0.5, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 13])
@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_gnp_is_the_per_pair_definition(n, p):
    # pair t = (u, v), u < v in lexicographic order, is an edge iff its
    # draw mix64(seed, t) falls below the threshold of p
    for seed in (0, 1, 99, 2**64 - 1, 2**70 + 5, -3):
        pairs = list(itertools.combinations(range(n), 2))
        want = [pairs[t] for t in range(len(pairs))
                if mix64(seed, t) < unit_threshold(p)]
        assert list(gnp_sample(n, p, seed).edges()) == want


def reference_gnp(n, p, seed):
    """G(n, p) spelled out: pair t = (u, v), u < v in lexicographic order,
    is an edge iff mix64(seed, t) falls below the threshold of p."""
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [pair for t, pair in enumerate(pairs)
                                if mix64(seed, t) < unit_threshold(p)])


# the lane table: splitmix64(t) in bits 128t.. for the 2,016 pairs of 64
# vertices
KEY_LANES = sum(splitmix64(t) << 128 * t for t in range(2_016))

# the splitmix64 increment, from the reference generator
GAMMA = 0x9E3779B97F4A7C15


def test_gnp_matches_the_reference_while_its_key_table_grows():
    for n in (12, 3, 45, 0, 30, 1, 70, 6, 100, 2):
        for p in (0.0, 0.3, 0.5, 1.0):
            for seed in (0, 5, 2**64 + 3):
                g, want = gnp_sample(n, p, seed), reference_gnp(n, p, seed)
                assert g == want
                assert pickle.dumps(g) == pickle.dumps(want)
                assert repr(g) == repr(want)
                assert g.masks == want.masks
        # built whole at import, and never changed after
        assert graphs._KEY_LANES == KEY_LANES


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 70),
       st.one_of(st.sampled_from([0.0, 1e-19, 0.5, 1 - 1e-16, 1.0]),
                 st.floats(0.0, 1.0)),
       st.one_of(st.integers(-2**70, 2**70),
                 st.sampled_from([-1, 2**64 - 1, 2**64, 2**64 + 1])))
@example(64, 0.5, -1)
@example(65, 0.5, 2**64)
def test_gnp_is_the_reference_on_both_sides_of_the_lane_table(n, p, seed):
    assert gnp_sample(n, p, seed) == reference_gnp(n, p, seed)


def test_splitmix64_is_the_reference_generator():
    # the reference generator's first three outputs from state 0: it adds
    # GAMMA to its state and mixes the result
    assert [splitmix64(0), splitmix64(GAMMA), splitmix64(2 * GAMMA & MASK64)] \
        == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_lanes_agree_with_the_scalar_mixer_on_edge_values():
    # 2**64 - GAMMA is where adding GAMMA wraps to 0
    lanes = [0, MASK64, 2**64 - GAMMA, 1, GAMMA]
    ones = lane_ones(len(lanes))
    packed = sum(v << 128 * t for t, v in enumerate(lanes))
    mixed = splitmix64_lanes(packed, ones)
    assert [mixed >> 128 * t & (1 << 128) - 1 for t in range(len(lanes))] \
        == [splitmix64(v) for v in lanes]
    for h in (0, MASK64, GAMMA):
        draws = [splitmix64(h ^ v) for v in lanes]
        for threshold in (0, 1, 2**64 - 1, 2**64, *draws,
                          *(d + 1 for d in draws)):
            want = b"".join(b"1" if d < threshold else b"0"
                            for d in reversed(draws))
            got = graphs._edge_chars(packed, ones, len(lanes), h, threshold)
            assert got == want, (h, threshold)


def test_gnp_graphs_match_their_golden_digest():
    # sha256 of the edge lists, taken before the pair-key table existed
    digest = hashlib.sha256()
    for n in (0, 1, 2, 5, 9, 14, 21, 30, 40, 61):
        for p, t in ((0.15, 0), (0.5, 1), (0.85, 2)):
            g = gnp_sample(n, p, 9_000 + 37 * n + t)
            digest.update(serialize_edge_list(g).encode())
    assert digest.hexdigest() == (
        "3537b240c86c5b25b65e03ff2f89293e4262141241cc3d49587ae9d9914c2a09")


def test_gnp_key_table_is_safe_to_grow_from_threads():
    # thread k samples n = k + 2, k + 6, ..., so the four threads read the
    # shared lane table at once, on both sides of its 64 vertices
    calls = [[(n, 0.5, n) for n in range(k + 2, 90, 4)] for k in range(4)]
    serial = [[gnp_sample(*c) for c in mine] for mine in calls]
    start = threading.Barrier(len(calls))

    def sample(mine):
        start.wait()
        return [gnp_sample(*c) for c in mine]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(3):
            with ThreadPoolExecutor(len(calls)) as pool:
                threaded = list(pool.map(sample, calls))
            assert graphs._KEY_LANES == KEY_LANES
            assert threaded == serial
            assert [[g.masks for g in mine] for mine in threaded] \
                == [[g.masks for g in mine] for mine in serial]
    finally:
        sys.setswitchinterval(previous)


def test_gnp_past_the_key_table_holds_one_row_of_keys_at_a_time():
    # n = 120 has 7,140 pairs, 5,124 of them past the full table; the
    # lanes of all of them at once would take about 114 KB
    tracemalloc.start()
    try:
        g = gnp_sample(120, 0.001, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == reference_gnp(120, 0.001, 0)
    assert graphs._KEY_LANES == KEY_LANES
    assert peak < 32_000


def test_gnp_edge_list_is_pinned():
    assert list(gnp_sample(8, 0.5, 31415).edges()) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 7), (2, 4), (2, 5),
        (2, 6), (2, 7), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 7),
        (6, 7)]


def test_trial_seed_is_order_sensitive():
    assert derive_trial_seed(1, 2, 3) != derive_trial_seed(1, 3, 2)
    assert derive_trial_seed(0, 0, 1) != derive_trial_seed(0, 1, 0)


# ---------------------------------------------------------------------------
# cliques


def test_maximal_cliques_known_graphs():
    assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques(cycle_graph(5)) == [
        (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert maximal_cliques(Graph.from_edges(1, [])) == [(0,)]


def test_maximal_cliques_cover_every_edge_and_are_maximal():
    g = gnp_sample(12, 0.5, 31337)
    cliques = maximal_cliques(g)
    seen = set()
    for c in cliques:
        for u, v in itertools.combinations(c, 2):
            assert g.has_edge(u, v)
            seen.add((u, v))
        outside = set(range(g.n)) - set(c)
        assert not any(all(g.has_edge(w, u) for u in c) for w in outside)
    assert seen == set(g.edges())


def brute_force_maximal_cliques(g):
    """Every vertex subset that is a clique and lies in no larger clique,
    found by trying all 2**n subsets."""
    pairs = itertools.combinations
    cliques = [c for k in range(1, g.n + 1) for c in pairs(range(g.n), k)
               if all(g.has_edge(u, v) for u, v in pairs(c, 2))]
    return sorted(c for c in cliques
                  if not any(all(g.has_edge(w, u) for u in c)
                             for w in range(g.n) if w not in c))


@settings(max_examples=150)
@given(small_graphs(10))
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(1, []))
@example(Graph.from_edges(6, []))
@example(complete_graph(10))
def test_maximal_cliques_match_an_all_subsets_brute_force(g):
    assert maximal_cliques(g) == brute_force_maximal_cliques(g)


def test_maximal_cliques_leave_no_reference_cycles():
    g = gnp_sample(30, 0.5, 3)
    gc.collect()
    gc.disable()
    try:
        cliques = maximal_cliques(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert cliques


def test_maximal_cliques_vertex_cap():
    with pytest.raises(ResourceCapError):
        maximal_cliques(complete_graph(5), vertex_cap=4)


def test_clique_number_examples():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(kneser_graph(2, 1)) == 2


def lex_first_largest_clique(g):
    """The first largest member of the full enumeration: the oracle for
    ``maximum_clique``."""
    cliques = maximal_cliques(g, vertex_cap=g.n)
    omega = max((len(c) for c in cliques), default=0)
    return next((c for c in cliques if len(c) == omega), ())


def test_maximum_clique_is_the_lex_first_largest_maximal_clique():
    seeded = [gnp_sample(n, p, 71_000 + 1000 * n + int(100 * p) + t)
              for n in (*range(15), 20, 30, 40)
              for p in (0.1, 0.3, 0.5, 0.7, 0.9)
              for t in range(3)]
    named = [Graph.from_edges(7, []), complete_graph(9), cycle_graph(5),
             from_family_spec("kneser:5,2"), from_family_spec("kneser:2,1"),
             from_family_spec("xn:3")]
    for g in seeded + named:
        assert maximum_clique(g, vertex_cap=g.n) == lex_first_largest_clique(g)
    assert maximum_clique(Graph.from_edges(0, [])) == ()
    assert maximum_clique(cycle_graph(5)) == (0, 1)


@settings(max_examples=150)
@given(small_graphs(10))
@example(Graph.from_edges(0, []))
@example(complete_graph(10))
def test_maximum_clique_matches_the_enumeration_on_small_graphs(g):
    assert maximum_clique(g) == lex_first_largest_clique(g)
    assert clique_number(g) == len(lex_first_largest_clique(g))


def test_clique_search_and_enumeration_share_one_cap_message():
    message = ("maximal clique enumeration capped at 4 vertices (got 5); "
               "raise vertex_cap to override")
    for fn in (maximal_cliques, maximum_clique, clique_number):
        with pytest.raises(ResourceCapError) as err:
            fn(complete_graph(5), vertex_cap=4)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# subgraph detectors


def test_bipartite_detector_on_c4_and_cliques():
    w = contains_complete_bipartite(cycle_graph(4), 2, 2)
    assert w == SubgraphWitness("complete_bipartite", ((0, 2), (1, 3)))
    assert witness_is_valid(cycle_graph(4), w)
    assert contains_complete_bipartite(complete_graph(3), 2, 2) is None
    w = contains_complete_bipartite(complete_graph(4), 2, 2)
    assert w is not None and witness_is_valid(complete_graph(4), w)


@settings(max_examples=40)
@given(small_graphs(6), st.integers(1, 3), st.integers(1, 3))
def test_bipartite_detector_is_symmetric_as_a_boolean(g, a, b):
    forward = contains_complete_bipartite(g, a, b)
    backward = contains_complete_bipartite(g, b, a)
    assert (forward is None) == (backward is None)
    for w in (forward, backward):
        if w is not None:
            assert witness_is_valid(g, w)


def test_witness_validator_rejects_forgeries():
    g = cycle_graph(4)
    assert not witness_is_valid(
        g, SubgraphWitness("complete_bipartite", ((0, 1), (2, 3))))
    assert not witness_is_valid(
        g, SubgraphWitness("clique", ((0, 1, 2),)))
    assert not witness_is_valid(
        g, SubgraphWitness("complete_bipartite", ((0, 0), (1, 3))))
    with pytest.raises(ValueError):
        witness_is_valid(g, SubgraphWitness("mystery", ((0,),)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_xn_detector_finds_itself(k):
    g = xn_graph(k) if k > 1 else Graph.from_edges(2, [])
    w = contains_xn(g, k)
    assert w is not None and witness_is_valid(g, w)


def test_xn_detector_requires_the_missing_edges():
    # every pair adjacent, so no partner can avoid its clique vertex
    assert contains_xn(complete_graph(4), 2) is None


def test_xn_detector_on_a_path():
    w = contains_xn(path_graph(4), 2)
    assert w == SubgraphWitness("xn", ((1, 2), (3, 0)))
    assert witness_is_valid(path_graph(4), w)


def test_xn_witness_validator_checks_partner_alignment():
    g = xn_graph(3)
    good = SubgraphWitness("xn", ((0, 1, 2), (3, 4, 5)))
    assert witness_is_valid(g, good)
    swapped = SubgraphWitness("xn", ((0, 1, 2), (4, 3, 5)))
    assert not witness_is_valid(g, swapped)


def test_detector_work_caps():
    hopeless = Graph.from_edges(30, [])
    with pytest.raises(ResourceCapError):
        contains_complete_bipartite(hopeless, 2, 2, work_cap=100)
    with pytest.raises(ResourceCapError):
        contains_xn(hopeless, 2, work_cap=100)


# ---------------------------------------------------------------------------
# density and balance


def test_density_values():
    assert density(complete_graph(4)) == Fraction(3, 2)
    assert density(path_graph(3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        density(Graph.from_edges(0, []))


def test_strict_balance_examples():
    assert is_strictly_balanced(complete_graph(5))
    assert is_strictly_balanced(path_graph(3))
    assert is_strictly_balanced(xn_graph(3))
    # equal-density proper subgraph: two disjoint triangles
    tri2 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                (3, 4), (4, 5), (3, 5)])
    assert not is_strictly_balanced(tri2)
    # denser proper subgraph: a triangle with a dangling vertex
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not is_strictly_balanced(paw)


def test_strict_balance_vertex_cap():
    with pytest.raises(ResourceCapError):
        is_strictly_balanced(complete_graph(14))
    assert is_strictly_balanced(xn_graph(7), vertex_cap=14)
