"""Sphere certificates, the obstruction dichotomy, and chromatic bounds."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from nbcomplex import certificates, graphs
from nbcomplex import (AtLeast, BoundComparison, Graph, ObstructionWitness,
                       ResourceCapError, SphereCertificate, bound_comparison,
                       chromatic_number_exact, clique_number,
                       comparisons_csv,
                       complete_graph, cycle_graph,
                       find_sphere_certificates, gnp_sample, graph_homology,
                       kneser_graph, neighborliness_chromatic_bound,
                       obstructed_clique_extension, obstruction_test,
                       path_graph, sphere_certificate, witness_is_valid,
                       xn_graph)

from test_graphs import brute_force_maximal_cliques, small_graphs


def k4_with_pendant():
    """K_4 on 0..3 plus vertex 4 attached to 0 only."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                (2, 3), (0, 4)])


def mycielski(g: Graph) -> Graph:
    """The Mycielski construction: raises chromatic number, keeps clique size."""
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    apex = 2 * n
    edges.extend((n + v, apex) for v in range(n))
    return Graph.from_edges(2 * n + 1, edges)


def naive_chromatic(g: Graph) -> int:
    """Brute force over all colorings; usable up to six vertices or so."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in g.edges()):
                return k
    raise AssertionError("n colors always suffice")


# ---------------------------------------------------------------------------
# clique validation


def test_obstruction_rejects_bad_cliques():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        obstruction_test(g, (), 0)
    with pytest.raises(ValueError):
        obstruction_test(g, (0, 0, 1), 0)
    with pytest.raises(ValueError):
        obstruction_test(g, (0, 7), 0)
    with pytest.raises(ValueError):
        obstruction_test(path_graph(4), (0, 2), 0)  # not a clique
    with pytest.raises(ValueError):
        obstruction_test(g, (0, 1, 2), 0)  # extendable by 3
    with pytest.raises(ValueError):
        obstruction_test(g, (0, 1, 2, 3), 4)  # index out of range


# ---------------------------------------------------------------------------
# the obstruction test on known graphs


def test_complete_graph_has_no_obstructions():
    g = complete_graph(5)
    for i in range(5):
        assert obstruction_test(g, (0, 1, 2, 3, 4), i) is None


def test_pendant_blocks_exactly_the_attachment_index():
    g = k4_with_pendant()
    assert obstruction_test(g, (0, 1, 2, 3), 0) == ObstructionWitness(
        u_star=4, v=0, index=0)
    for i in (1, 2, 3):
        assert obstruction_test(g, (0, 1, 2, 3), i) is None


def test_path_middle_edge_is_obstructed_at_both_ends():
    g = path_graph(4)
    assert obstruction_test(g, (1, 2), 0) == ObstructionWitness(0, 1, 0)
    assert obstruction_test(g, (1, 2), 1) == ObstructionWitness(3, 2, 1)


def test_witnesses_satisfy_their_defining_property():
    g = gnp_sample(10, 0.5, 404)
    from nbcomplex import maximal_cliques
    for clique in maximal_cliques(g):
        if len(clique) < 2:
            continue
        for i in range(len(clique)):
            w = obstruction_test(g, clique, i)
            if w is None:
                continue
            assert w.u_star not in clique
            kept = [u for j, u in enumerate(clique) if j != i]
            assert all(g.has_edge(w.v, u) for u in kept)
            assert g.has_edge(w.v, w.u_star)


# ---------------------------------------------------------------------------
# sphere certificates


def test_complete_graph_certificate():
    cert = sphere_certificate(complete_graph(5), (0, 1, 2, 3, 4))
    assert cert == SphereCertificate((0, 1, 2, 3, 4), 0, 3, validated=False)


def test_certificate_picks_first_unobstructed_index():
    cert = sphere_certificate(k4_with_pendant(), (0, 1, 2, 3))
    assert cert is not None
    assert cert.retract_index == 1
    assert cert.sphere_dim == 2


def test_singleton_cliques_are_never_certified():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])  # K_3 plus isolated 3
    assert sphere_certificate(g, (3,)) is None


def test_five_cycle_has_circle_homology_but_no_certificate():
    # sufficiency is one-directional: homology can be nonzero anyway
    r, _ = graph_homology(cycle_graph(5))
    assert r.betti == (0, 1)
    assert find_sphere_certificates(cycle_graph(5)) == []


def test_single_edge_certificate_names_a_zero_sphere():
    certs = find_sphere_certificates(complete_graph(2))
    assert len(certs) == 1
    assert certs[0].sphere_dim == 0 and certs[0].validated


def test_find_certificates_sorts_by_dimension_then_clique():
    # disjoint K_4 and K_3: one 2-sphere and one 1-sphere
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (5, 6)]
    certs = find_sphere_certificates(Graph.from_edges(7, edges))
    assert [c.sphere_dim for c in certs] == [2, 1]
    assert certs[0].clique == (0, 1, 2, 3)
    assert certs[1].clique == (4, 5, 6)
    assert all(c.validated for c in certs)


def test_find_certificates_vertex_cap():
    with pytest.raises(ResourceCapError):
        find_sphere_certificates(complete_graph(5), vertex_cap=4)


def test_certificates_imply_nonzero_homology():
    for seed in range(8):
        g = gnp_sample(9, 0.55, 6100 + seed)
        certs = find_sphere_certificates(g)
        if not certs:
            continue
        r, _ = graph_homology(g)
        for c in certs:
            assert r.betti[c.sphere_dim] >= 1 or r.torsion[c.sphere_dim]


# ---------------------------------------------------------------------------
# the fully-obstructed extension


def test_extension_on_an_augmented_partnered_clique():
    # xn(3) plus an extra vertex adjacent to clique vertex 0 and all partners,
    # so every index is blocked by an outside vertex
    edges = list(xn_graph(3).edges()) + [(6, 0), (6, 3), (6, 4), (6, 5)]
    g = Graph.from_edges(7, edges)
    w = obstructed_clique_extension(g, (0, 1, 2))
    assert w is not None
    assert w.parts == ((0, 1, 2), (3, 4, 5))
    assert witness_is_valid(g, w)


def test_pure_partnered_clique_yields_no_extension():
    # the partners themselves block each index, but the blocking vertex is
    # always inside the clique, so no outside extension exists
    assert obstructed_clique_extension(xn_graph(2), (0, 1)) is None
    assert obstructed_clique_extension(xn_graph(3), (0, 1, 2)) is None


def test_unobstructed_cliques_yield_no_extension():
    assert obstructed_clique_extension(complete_graph(4), (0, 1, 2, 3)) is None
    assert obstructed_clique_extension(path_graph(4), (1, 2)) is None


@settings(max_examples=40)
@given(small_graphs(7))
def test_certificate_and_extension_never_coexist(g):
    from nbcomplex import maximal_cliques
    for clique in maximal_cliques(g):
        if len(clique) < 2:
            continue
        cert = sphere_certificate(g, clique)
        ext = obstructed_clique_extension(g, clique)
        if cert is not None:
            assert ext is None
        if ext is not None:
            assert witness_is_valid(g, ext)


def brute_force_partners(g, x):
    """Per index of the clique x, the v of the first (u*, v) pair in
    lexicographic order with u* and v outside x, v adjacent to u* and to
    every other clique member; None when some index has no such pair."""
    partners = []
    for i in range(len(x)):
        rest = [u for j, u in enumerate(x) if j != i]
        found = next((v for u_star in range(g.n) if u_star not in x
                      for v in range(g.n) if v not in x
                      and g.has_edge(v, u_star)
                      and all(g.has_edge(v, u) for u in rest)), None)
        if found is None:
            return None
        partners.append(found)
    return tuple(partners)


def test_extension_partners_match_a_brute_force_scan():
    from nbcomplex import maximal_cliques
    extended = 0
    for n in range(2, 10):
        for p in (0.3, 0.5, 0.7, 0.9):
            for t in range(8):
                g = gnp_sample(n, p, 7_000 + 100 * n + 10 * int(10 * p) + t)
                for clique in maximal_cliques(g):
                    if len(clique) < 2:
                        continue
                    x = tuple(sorted(clique))
                    want = brute_force_partners(g, x)
                    ext = obstructed_clique_extension(g, x)
                    assert (None if ext is None else ext.parts) == \
                        (None if want is None else (x, want))
                    extended += want is not None
    assert extended > 0  # the samples do reach the extension branch


def seeded_graphs():
    """Seeded G(n, p) graphs, n <= 9, sparse to dense."""
    return [gnp_sample(n, p, 5_000 + 100 * n + 10 * int(10 * p) + t)
            for n in range(1, 10) for p in (0.2, 0.4, 0.6, 0.8, 0.95)
            for t in range(4)]


def plain_obstruction(g, x, i):
    """The first (u*, v) pair in lexicographic order with u* outside the
    clique x and v adjacent to u* and to every member but the i-th."""
    rest = [u for j, u in enumerate(x) if j != i]
    for u_star in range(g.n):
        if u_star in x:
            continue
        for v in range(g.n):
            if g.has_edge(v, u_star) and all(g.has_edge(v, u) for u in rest):
                return ObstructionWitness(u_star, v, i)
    return None


def plain_certificates(g):
    """Certificates by plain loops: every maximal clique of two or more
    vertices (all subsets tried), its first unobstructed index, sorted by
    dimension descending, then clique."""
    certs = []
    for x in brute_force_maximal_cliques(g):
        free = [i for i in range(len(x))
                if plain_obstruction(g, x, i) is None]
        if len(x) >= 2 and free:
            certs.append(SphereCertificate(x, free[0], len(x) - 2,
                                           validated=True))
    certs.sort(key=lambda c: (-c.sphere_dim, c.clique))
    return certs


def test_obstruction_test_matches_a_plain_double_loop():
    from nbcomplex import maximal_cliques
    blocked = free = 0
    for g in seeded_graphs():
        for clique in maximal_cliques(g):
            for i in range(len(clique)):
                want = plain_obstruction(g, clique, i)
                assert obstruction_test(g, clique, i) == want
                blocked += want is not None
                free += want is None
    assert blocked > 0 and free > 0  # the samples reach both outcomes


def all_index_certificate(adj, x):
    """The search over every index, each through ``_search_obstruction``:
    the oracle for ``_first_certificate``, which searches only members whose
    whole neighborhood lies inside the clique."""
    if len(x) < 2:
        return None
    inside, commons = certificates._clique_masks(adj, x)
    for i, common in enumerate(commons):
        if certificates._search_obstruction(adj, common, inside) is None:
            return SphereCertificate(x, i, len(x) - 2)
    return None


def certificate_search_graphs():
    """Seeded G(n, p) for n = 2..14, sparse to dense, and the named graphs
    whose cliques have members with no neighbor outside the clique."""
    seeded = [gnp_sample(n, p, 8_000 + 100 * n + int(100 * p) + t)
              for n in range(2, 15)
              for p in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)
              for t in range(3)]
    named = [graphs.from_family_spec(s)
             for s in ("complete:2", "complete:5", "cycle:5", "kneser:5,2",
                       "xn:3")]
    return seeded + named


def test_first_certificate_matches_the_all_index_search():
    searched = free = 0
    for g in certificate_search_graphs():
        adj = g.masks
        cliques = graphs.maximal_cliques(g, vertex_cap=g.n)
        want = []
        for x in cliques:
            cert = all_index_certificate(adj, x)
            assert sphere_certificate(g, x) == cert
            if cert is not None:
                want.append(SphereCertificate(x, cert.retract_index,
                                              cert.sphere_dim, validated=True))
            inside = sum(1 << u for u in x)
            searched += len(x) >= 2 and any(not adj[u] & ~inside for u in x)
            free += cert is not None
        want.sort(key=lambda c: (-c.sphere_dim, c.clique))
        assert certificates._certificates_from_cliques(g, cliques) == want
    assert searched > 0 and free > 0  # the samples reach the full search


def test_simplicial_cliques_give_the_certificates_of_the_enumeration():
    found = 0
    for g in certificate_search_graphs():
        adj = g.masks
        cliques = graphs.maximal_cliques(g, vertex_cap=g.n)
        # the maximal cliques with a member whose neighborhood they contain
        contained = [x for x in cliques
                     if any(not adj[u] & ~sum(1 << w for w in x) for u in x)]
        assert certificates._simplicial_cliques(g, g.n) == contained
        want = certificates._certificates_from_cliques(g, cliques)
        assert find_sphere_certificates(g, vertex_cap=g.n) == want
        found += len(want)
    assert found > 0


def test_first_certificate_searches_only_contained_members(monkeypatch):
    calls = []
    inner = certificates._search_obstruction
    monkeypatch.setattr(certificates, "_search_obstruction",
                        lambda *a: calls.append(a) or inner(*a))
    # xn(3): in the clique {0, 1, 5} only partner 5 has N(5) inside it
    g = xn_graph(3)
    assert certificates._first_certificate(g.masks,
                                           (0, 1, 5)) is None
    assert len(calls) == 1
    calls.clear()
    assert certificates._first_certificate(g.masks,
                                           (0, 1, 2)) is None
    assert calls == []


def test_find_certificates_match_a_plain_loop_scan():
    found = 0
    for g in seeded_graphs():
        want = plain_certificates(g)
        assert find_sphere_certificates(g) == want
        found += len(want)
    assert found > 0


# ---------------------------------------------------------------------------
# chromatic numbers


def test_chromatic_known_values():
    assert chromatic_number_exact(complete_graph(4)) == 4
    assert chromatic_number_exact(cycle_graph(5)) == 3
    assert chromatic_number_exact(cycle_graph(6)) == 2
    assert chromatic_number_exact(path_graph(5)) == 2
    assert chromatic_number_exact(Graph.from_edges(3, [])) == 1
    assert chromatic_number_exact(Graph.from_edges(0, [])) == 0
    assert chromatic_number_exact(kneser_graph(2, 1)) == 3


def test_chromatic_number_of_triangle_free_mycielskian():
    g = mycielski(cycle_graph(5))  # 11 vertices, clique number 2
    from nbcomplex import clique_number
    assert clique_number(g) == 2
    assert chromatic_number_exact(g) == 4


def test_chromatic_matches_brute_force_on_small_graphs():
    for seed in range(12):
        g = gnp_sample(6, 0.5, 7300 + seed)
        assert chromatic_number_exact(g) == naive_chromatic(g)


def test_chromatic_vertex_cap():
    with pytest.raises(ResourceCapError):
        chromatic_number_exact(complete_graph(21))
    assert chromatic_number_exact(complete_graph(21), vertex_cap=21) == 21


def test_neighborliness_bound_values():
    assert neighborliness_chromatic_bound(complete_graph(5)) == 5
    assert neighborliness_chromatic_bound(cycle_graph(5)) == 2
    assert neighborliness_chromatic_bound(Graph.from_edges(2, [])) == 1
    with pytest.raises(ValueError):
        neighborliness_chromatic_bound(Graph.from_edges(0, []))


def test_neighborliness_bound_cap_carries_partial_result():
    with pytest.raises(ResourceCapError) as err:
        neighborliness_chromatic_bound(complete_graph(12), work_cap=20)
    assert str(err.value) == "neighborliness exceeded work cap 20"
    assert err.value.best == 12 == neighborliness_chromatic_bound(
        complete_graph(12))


# ---------------------------------------------------------------------------
# the comparison record


def test_bound_comparison_fields_and_invariants():
    g = gnp_sample(9, 0.5, 17)
    r = bound_comparison(g)
    assert r.n == 9 and r.edges == g.edge_count
    assert r.missing == ()
    assert r.chromatic_number >= r.clique_number
    assert r.chromatic_number >= r.neighborliness_bound


def test_bound_comparison_records_capped_fields_as_missing():
    g = gnp_sample(9, 0.5, 17)
    r = bound_comparison(g, coloring_cap=5)
    assert r.missing == ("chromatic_number",)
    assert r.chromatic_number is None
    # the other columns still fill in
    assert r.clique_number is not None
    assert r.hom_connectivity is not None


@pytest.mark.parametrize("g, coloring_cap, missing", [
    (gnp_sample(9, 0.5, 17), 20, ()),
    (gnp_sample(9, 0.5, 17), 5, ("chromatic_number",)),
    # past the 64-vertex clique cap: coloring, clique number and
    # certificates all go missing, whatever the coloring cap says
    (path_graph(65), 20,
     ("chromatic_number", "clique_number", "best_certificate_dim")),
    (path_graph(65), 100,
     ("chromatic_number", "clique_number", "best_certificate_dim")),
    (gnp_sample(12, 0.3, 0), 20, ()),  # a graph with certificates
], ids=["uncapped", "coloring-cap", "clique-cap", "clique-cap-only",
        "certified"])
def test_bound_comparison_never_enumerates_maximal_cliques(
        monkeypatch, g, coloring_cap, missing):
    oracle = graphs.maximal_cliques

    def refuse(*args, **kwargs):
        raise AssertionError("bound_comparison enumerated maximal cliques")

    # patched where it is defined and in the module that used to import it
    monkeypatch.setattr(graphs, "maximal_cliques", refuse)
    monkeypatch.setattr(certificates, "maximal_cliques", refuse,
                        raising=False)
    r = bound_comparison(g, coloring_cap=coloring_cap)
    monkeypatch.undo()
    assert r.missing == missing
    if "chromatic_number" not in missing:
        assert r.chromatic_number == chromatic_number_exact(g)
    if "clique_number" not in missing:
        cliques = oracle(g)
        assert r.clique_number == max(len(c) for c in cliques)
        best = max((c.sphere_dim for c in
                    certificates._certificates_from_cliques(g, cliques)),
                   default=None)
        assert r.best_certificate_dim == best


def test_comparisons_csv_layout():
    rows = [bound_comparison(gnp_sample(8, 0.5, s)) for s in (1, 2)]
    text = comparisons_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("n,edges,chromatic_number,clique_number,"
                        "neighborliness_bound,hom_connectivity,"
                        "best_certificate_dim,missing")
    assert len(lines) == 3
    assert all(line.count(",") == 7 for line in lines)


def test_comparison_json_and_csv_spell_the_same_record():
    vanishing = BoundComparison(1, 0, 1, 1, 1, -2, None, ())
    capped = BoundComparison(
        65, 64, None, None, 2, -1, None,
        ("chromatic_number", "clique_number", "best_certificate_dim"))
    assert vanishing.to_json_dict() == {
        "n": 1, "edges": 0, "chromatic_number": 1, "clique_number": 1,
        "neighborliness_bound": 1, "hom_connectivity": -2,
        "best_certificate_dim": None, "missing": []}
    assert capped.to_json_dict() == {
        "n": 65, "edges": 64, "chromatic_number": None,
        "clique_number": None, "neighborliness_bound": 2,
        "hom_connectivity": -1, "best_certificate_dim": None,
        "missing": ["chromatic_number", "clique_number",
                    "best_certificate_dim"]}
    assert comparisons_csv([vanishing, capped]) == (
        "n,edges,chromatic_number,clique_number,neighborliness_bound,"
        "hom_connectivity,best_certificate_dim,missing\n"
        "1,0,1,1,1,-2,,\n"
        "65,64,,,2,-1,,chromatic_number;clique_number;best_certificate_dim\n")
    # a connectivity known only from below keeps its ">=k" spelling
    assert BoundComparison(2, 1, 2, 2, 2, AtLeast(0), None, ()) \
        .to_json_dict()["hom_connectivity"] == ">=0"
    # the records the library computes for those two cases: N[K_1] is
    # empty, so its connectivity is -2
    assert bound_comparison(complete_graph(1)) == vanishing
    assert bound_comparison(path_graph(65)) == capped
