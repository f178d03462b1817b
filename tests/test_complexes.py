"""Neighborhood complexes, the common-neighbor operator, the strong core,
and the retract."""

from __future__ import annotations

import collections
import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from nbcomplex import (ClosedSetPoset, Graph, ParseError, ResourceCapError,
                       SimplicialComplex, closed_set_poset, closed_set_stats,
                       closure, common_neighbors, complete_bipartite_graph,
                       complete_graph, cycle_graph, facet_list_text,
                       from_family_spec, gnp_sample, lovasz_retract,
                       neighborhood_complex, neighborliness,
                       neighborliness_chromatic_bound, parse_facet_list,
                       path_graph)
from nbcomplex import complexes
from nbcomplex.complexes import _maximal, neighborhood_complex_components

from test_graphs import small_graphs


def subsets(n):
    return st.sets(st.integers(0, n - 1)) if n else st.just(set())


# ---------------------------------------------------------------------------
# SimplicialComplex basics


def test_from_faces_keeps_only_maximal_faces():
    c = SimplicialComplex.from_faces(4, [(0, 1), (1,), (0, 1, 2), (3,)])
    assert c.facets == ((0, 1, 2), (3,))
    assert c.dimension == 2
    assert c.f_vector() == (4, 3, 1)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 255), max_size=14))
def test_maximal_keeps_each_inclusion_maximal_set_once(masks):
    want = {m for m in masks
            if m and not any(m != k and m & k == m for k in masks)}
    got = _maximal(masks)
    assert len(got) == len(want) and set(got) == want
    assert [m.bit_count() for m in got] == sorted(
        (m.bit_count() for m in got), reverse=True)


@pytest.mark.parametrize("ground_set, faces, message", [
    (-1, [], "nonnegative"), (-1, [(0,)], "nonnegative"),
    (3, [(0, 3)], "vertex 3 out of range"),
    (3, [(1,), (2, 7)], "vertex 7 out of range"),
    (3, [(-1, 0)], "vertex -1 out of range"),
    (0, [(0,)], "vertex 0 out of range"),
])
def test_from_faces_rejects_bad_ground_sets_and_labels(ground_set, faces,
                                                       message):
    with pytest.raises(ValueError, match=message):
        SimplicialComplex.from_faces(ground_set, faces)


def test_empty_complex_conventions():
    c = SimplicialComplex.from_faces(3, [])
    assert c.dimension == -1
    assert c.f_vector() == ()
    assert not c.is_face(())
    assert c.component_count() == 0


def test_is_face_and_k_faces():
    c = SimplicialComplex.from_faces(4, [(0, 1, 2), (2, 3)])
    assert c.is_face(())
    assert c.is_face((0, 2))
    assert c.is_face([2, 0])
    assert not c.is_face((0, 3))
    assert c.k_faces(1) == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert c.k_faces(5) == []
    assert c.vertices() == (0, 1, 2, 3)


def test_is_face_is_false_for_labels_outside_the_ground_set():
    c = SimplicialComplex.from_faces(4, [(0, 1, 2), (2, 3)])
    for s in [(-1,), (0, -1), (-12, 2), (4,), (2, 4), (3, 40)]:
        assert not c.is_face(s)
    assert not SimplicialComplex.from_faces(0, []).is_face((-1,))


def test_face_enumeration_caps_the_running_total():
    # the boundary of a tetrahedron: 4 vertices, 6 edges, 4 triangles
    c = neighborhood_complex(complete_graph(4))
    assert [len(layer) for layer in c.faces_up_to(3)] == [4, 6, 4, 0]
    # ascending masks, which is colex order: 01 02 12 03 13 23
    assert c.faces_up_to(2, cap=14)[1] == (0b0011, 0b0101, 0b0110, 0b1001,
                                           0b1010, 0b1100)
    # every dimension fits under 7, but the total through dimension 2 does not
    with pytest.raises(ResourceCapError) as err:
        c.faces_up_to(2, cap=7)
    assert err.value.partial_count > 7


def test_component_count_unions_overlapping_facets():
    c = SimplicialComplex.from_faces(6, [(0, 1), (1, 2), (3, 4), (5,)])
    assert c.component_count() == 3


def test_facet_text_round_trip_and_errors():
    c = SimplicialComplex.from_faces(4, [(0, 1, 2), (2, 3)])
    text = facet_list_text(c)
    assert text.splitlines()[0] == "dim 2"
    assert parse_facet_list(text) == c
    with pytest.raises(ParseError) as err:
        parse_facet_list("dim 2\n0 1 2\n0 q\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_facet_list("0 1 2\n")
    with pytest.raises(ParseError):
        parse_facet_list("dim 1\n0 0\n")
    with pytest.raises(ParseError):
        parse_facet_list("dim 3\n0 1 2\n")  # header disagrees with facets


@pytest.mark.parametrize("text, line, message", [
    ("dim two\n0 1 2\n", 1, "bad dimension 'two'"),
    ("dim 1\n0 1\n\n-1 2\n", 4, "negative vertex label"),
    ("", None, "missing 'dim <d>' header"),
    ("# no facets\n", None, "missing 'dim <d>' header"),
])
def test_parse_facet_list_names_the_error_and_its_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_facet_list(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# the common-neighbor operator


def test_common_neighbors_of_empty_set_is_everything():
    g = cycle_graph(5)
    assert common_neighbors(g, []) == frozenset(range(5))


def test_common_neighbors_examples():
    g = path_graph(4)  # 0-1-2-3
    assert common_neighbors(g, [0]) == frozenset({1})
    assert common_neighbors(g, [0, 2]) == frozenset({1})
    assert common_neighbors(g, [0, 3]) == frozenset()


@settings(max_examples=50)
@given(small_graphs(6).flatmap(
    lambda g: st.tuples(st.just(g), subsets(max(g.n, 1)), subsets(max(g.n, 1)))))
def test_common_neighbors_reverses_inclusion(data):
    g, s, t = data
    s = {v for v in s if v < g.n}
    t = {v for v in t if v < g.n}
    if s <= t:
        assert common_neighbors(g, t) <= common_neighbors(g, s)


@settings(max_examples=50)
@given(small_graphs(6).flatmap(
    lambda g: st.tuples(st.just(g), subsets(max(g.n, 1)))))
def test_common_neighbors_applied_thrice_equals_once(data):
    g, s = data
    s = {v for v in s if v < g.n}
    once = common_neighbors(g, s)
    thrice = common_neighbors(g, common_neighbors(g, once))
    assert thrice == once


@settings(max_examples=50)
@given(small_graphs(6).flatmap(
    lambda g: st.tuples(st.just(g), subsets(max(g.n, 1)))))
def test_closure_is_extensive_and_idempotent(data):
    g, s = data
    s = {v for v in s if v < g.n}
    if s and not common_neighbors(g, s):
        with pytest.raises(ValueError):
            closure(g, s)
        return
    cl = closure(g, s)
    if s:
        assert s <= cl
    assert closure(g, cl) == cl


# ---------------------------------------------------------------------------
# neighborhood complexes of known graphs


@pytest.mark.parametrize("m", range(2, 7))
def test_complete_graph_complex_is_a_simplex_boundary(m):
    c = neighborhood_complex(complete_graph(m))
    assert c.dimension == m - 2
    assert c.f_vector() == tuple(math.comb(m, k + 1) for k in range(m - 1))
    assert c.facets == tuple(
        itertools.combinations(range(m), m - 1))


def test_edgeless_graph_has_empty_complex():
    assert neighborhood_complex(Graph.from_edges(4, [])).dimension == -1


def test_single_edge_complex_is_two_points():
    c = neighborhood_complex(complete_graph(2))
    assert c.facets == ((0,), (1,))
    assert c.component_count() == 2


def test_five_cycle_complex_is_a_five_cycle():
    c = neighborhood_complex(cycle_graph(5))
    assert c.f_vector() == (5, 5)
    assert c.component_count() == 1
    assert c.facets == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


def disjoint_cliques(*sizes):
    edges, start = [], 0
    for m in sizes:
        edges += [(start + u, start + v)
                  for u, v in itertools.combinations(range(m), 2)]
        start += m
    return Graph.from_edges(start, edges)


@pytest.mark.parametrize("g, components", [
    (Graph.from_edges(0, []), 0),
    (Graph.from_edges(1, []), 0),
    (Graph.from_edges(4, []), 0),
    (disjoint_cliques(2, 2, 2, 2), 8),  # a perfect matching: eight points
    (disjoint_cliques(3, 4, 1, 5), 3),
    (disjoint_cliques(2, 3), 3),
    (cycle_graph(5), 1),
    (complete_bipartite_graph(3, 4), 2),
])
def test_component_count_from_masks_on_named_graphs(g, components):
    c = neighborhood_complex(g)
    assert neighborhood_complex_components(g) == c.component_count() \
        == components
    assert (g.edge_count == 0) == (c.dimension == -1)


def test_component_count_from_masks_on_random_graphs():
    for k in range(200):
        g = gnp_sample(1 + k % 14, (k * 37 % 101) / 100, 70_000 + k)
        c = neighborhood_complex(g)
        assert neighborhood_complex_components(g) == c.component_count(), k
        assert (g.edge_count == 0) == (c.dimension == -1), k


@settings(max_examples=40)
@given(small_graphs(6))
def test_every_facet_is_somebodys_neighborhood(g):
    c = neighborhood_complex(g)
    hoods = {g.neighbors(v) for v in range(g.n) if g.neighbors(v)}
    for f in c.facets:
        assert frozenset(f) in hoods
    # and every neighborhood is a face
    for h in hoods:
        assert c.is_face(sorted(h))


# ---------------------------------------------------------------------------
# neighborliness


def test_neighborliness_values():
    assert neighborliness(complete_graph(5)) == 4
    assert neighborliness(cycle_graph(5)) == 1
    assert neighborliness(path_graph(3)) == 1
    assert neighborliness(Graph.from_edges(2, [])) == 0
    assert neighborliness(Graph.from_edges(1, [])) == 0
    # the search goes 1,100 deep, past the default recursion limit
    assert neighborliness(complete_graph(1_100)) == 1_099
    with pytest.raises(ValueError):
        neighborliness(Graph.from_edges(0, []))


def test_neighborliness_cap_reports_best_level_finished():
    # K12's twelve non-neighborhoods are disjoint singletons, so the root
    # proves the value before the search passes its cap
    with pytest.raises(ResourceCapError) as err:
        neighborliness(complete_graph(12), work_cap=20)
    assert str(err.value) == "neighborliness exceeded work cap 20"
    assert err.value.best == 11 == neighborliness(complete_graph(12))


def level_scan(g):
    """The level-by-level scan that ``neighborliness`` replaced, kept as its
    value oracle: i-subsets in lexicographic order, one step each, until
    one has no common neighbor.  Returns (value, steps taken)."""
    adj = [g.neighbors(v) for v in range(g.n)]
    steps = 0
    for i in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), i):
            steps += 1
            if not frozenset.intersection(*(adj[v] for v in s)):
                return i - 1, steps
    raise AssertionError("the whole vertex set has a common neighbor")


def check_cap_outcome(g, work_cap, value):
    """The search returns the oracle's value, or raises naming its cap with
    a ``best`` it has proved, no greater than the value.  True if capped."""
    try:
        assert neighborliness(g, work_cap) == value
    except ResourceCapError as err:
        assert str(err) == f"neighborliness exceeded work cap {work_cap}"
        assert 0 <= err.best <= value
        return True
    return False


def search_work(g):
    """The units ``neighborliness`` charges for g: the unmet targets of
    every node it visits, each node read once by the pass that counts the
    disjoint ones, and the targets each pair probe reads, recounted here: a
    probe reads masks in order until the ones missing its bit share no
    vertex."""
    charged = []

    def counting(masks, stop):
        charged.append(len(masks))
        return count(masks, stop)

    def probing(masks, bit):
        common, read = -1, 0
        for m in masks:
            read += 1
            if not m & bit:
                common &= m
                if not common:
                    break
        charged.append(read)
        assert meet(masks, bit) == (common, read)
        return common, read

    count, meet = complexes._disjoint_count, complexes._meet
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_disjoint_count", counting)
        patch.setattr(complexes, "_meet", probing)
        neighborliness(g)
    return sum(charged)


def branch_only(g):
    """The hitting-set search ``neighborliness`` ran before it settled its
    last two levels in closed form, kept uncapped as its value oracle past
    the level scan's reach: the complements of the facets of N[G] as
    targets, and a branch on the smallest unmet one until one vertex is
    left to add."""
    def disjoint(masks, stop):
        used = count = 0
        for m in masks:
            if not m & used:
                used |= m
                count += 1
                if count > stop:
                    break
        return count

    full = (1 << g.n) - 1
    targets = [full & ~m for m in _maximal(g.masks)] or [full]
    best = g.n + 1
    stack = [(0, targets)]
    while stack:
        chosen, unmet = stack.pop()
        room = best - 1 - chosen
        if disjoint(unmet, room) > room:
            continue
        if room == 1:
            common = -1
            for m in unmet:
                common &= m
            if common:
                best = chosen + 1
            continue
        bit = unmet[0] & -unmet[0]
        rest = [m for m in unmet if not m & bit]
        if not rest:
            best = chosen + 1
            continue
        unmet = sorted((m & ~bit for m in unmet), key=int.bit_count)
        if unmet[0]:
            stack.append((chosen, unmet))
        stack.append((chosen + 1, rest))
    return best - 1


def scan_totals(n):
    """[0, C(n,1), C(n,1) + C(n,2), ...]: the scan's steps through each level."""
    return [0, *itertools.accumulate(math.comb(n, i) for i in range(1, n + 1))]


def test_neighborliness_matches_the_level_scan_on_random_graphs():
    outcomes = collections.Counter()
    for k in range(600):
        n = 1 + k % 12
        p = (k * 7919 % 1000) / 999
        g = gnp_sample(n, p, 90_000 + k)
        value, steps = level_scan(g)
        work = search_work(g)
        # the cap is the search's own work: it returns at that cap and
        # raises one below it
        assert neighborliness(g, work) == value, k
        assert check_cap_outcome(g, work - 1, value), k
        for cap in {-1, 0, work // 2, steps - 1, steps, 5_000_000}:
            capped = check_cap_outcome(g, cap, value)
            assert capped == (cap < work), (k, cap)
            outcomes[capped, cap < steps] += 1
    # caps below both, below the scan's steps only, and above both
    assert min(outcomes[True, True], outcomes[False, True],
               outcomes[False, False]) > 200


@settings(max_examples=200, deadline=None)
@given(small_graphs(10).filter(lambda g: g.n >= 1), st.integers(-1, 1100))
def test_neighborliness_matches_the_level_scan_on_edge_sets(g, cap):
    value = level_scan(g)[0]
    check_cap_outcome(g, cap, value)
    assert neighborliness(g) == value


def test_neighborliness_decides_the_capped_level_by_rank():
    # At n = 60 the level scan passes a cap of C(60,1) + ... + C(60,4)
    # before it finds the 5-set with no common neighbor; the search
    # settles the value, 4, within that cap and stops at a smaller one.
    g = gnp_sample(60, 0.7, 1)
    totals = scan_totals(60)
    assert totals[4] <= 5_000_000 < totals[5]
    assert neighborliness(g) == 4
    assert neighborliness(g, work_cap=totals[4]) == 4
    assert check_cap_outcome(g, 100, 4)


def test_neighborliness_matches_the_branch_only_search_past_the_scan():
    for k in range(240):
        n = 13 + k % 28
        p = 0.1 + (k * 7919 % 801) / 1000
        g = gnp_sample(n, p, 70_000 + k)
        value = branch_only(g)
        work = search_work(g)
        assert neighborliness(g) == value, k
        assert neighborliness(g, work) == value, k
        # every cap below the work raises, with a best no greater than value
        for cap in {-1, 0, work // 8, work // 2, work - 1}:
            assert check_cap_outcome(g, cap, value), (k, cap)


def test_neighborliness_settles_where_the_branch_only_search_capped():
    # the search without the closed form passed the default cap here
    g = gnp_sample(100, 0.7, 0)
    assert neighborliness(g) == 5 == branch_only(g)


def test_neighborliness_cap_past_enumeration_reach():
    # the level scan would need hours here; the search passes its default
    # cap in about a second.  One non-neighborhood meets all the others, so
    # the disjoint count proves only 0, but no 3 vertices hit all 128 of
    # them by the counting bound, which proves 2
    g = gnp_sample(128, 0.7, 1)
    with pytest.raises(ResourceCapError) as err:
        neighborliness(g)
    assert str(err.value) == "neighborliness exceeded work cap 5000000"
    assert err.value.best == 2
    with pytest.raises(ResourceCapError) as err:
        neighborliness_chromatic_bound(g, work_cap=100_000)
    assert str(err.value) == "neighborliness exceeded work cap 100000"
    assert err.value.best == 3


def test_neighborliness_bounds_small_face_counts():
    # every i-set with i <= neighborliness is a face of the complex
    g = gnp_sample(9, 0.7, 555)
    i = neighborliness(g)
    c = neighborhood_complex(g)
    for k in range(i):
        assert len(c.k_faces(k)) == math.comb(g.n, k + 1)


# ---------------------------------------------------------------------------
# closed-set poset


def test_triangle_poset_is_six_sets_in_two_ranks():
    p = closed_set_poset(complete_graph(3))
    assert p.elements == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    assert p.height == 1
    assert p.covers == ((0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5))


def test_poset_orders_by_strict_inclusion():
    p = closed_set_poset(complete_graph(4))
    assert len(p.elements) == 14
    assert p.height == 2
    sets = p.element_sets()
    for lo, hi in p.covers:
        assert sets[lo] < sets[hi]
        # Hasse: nothing strictly between
        assert not any(sets[lo] < s < sets[hi] for s in sets)


def test_poset_of_edgeless_graph_is_empty():
    p = closed_set_poset(Graph.from_edges(3, []))
    assert p.elements == () and p.covers == () and p.height == -1


def test_poset_elements_are_closed_under_intersection():
    g = gnp_sample(10, 0.5, 808)
    sets = set(closed_set_poset(g).element_sets())
    for a in sets:
        for b in sets:
            if a & b:
                assert a & b in sets
    for v in range(g.n):
        if g.neighbors(v):
            assert g.neighbors(v) in sets


def test_poset_caps():
    with pytest.raises(ResourceCapError):
        closed_set_poset(complete_graph(20))
    with pytest.raises(ResourceCapError):
        closed_set_poset(gnp_sample(14, 0.5, 12), element_cap=10)


def test_poset_json_shape():
    d = closed_set_poset(complete_graph(3)).to_json_dict()
    assert set(d) == {"elements", "covers", "height"}
    assert d["height"] == 1
    assert [0, 1] in d["elements"]


def capped(build, g, **caps):
    """``build(g, **caps)``, or the message of the cap it hit."""
    try:
        return build(g, **caps)
    except ResourceCapError as err:
        return str(err)


def poset_stats(g, **caps):
    p = closed_set_poset(g, **caps)
    return len(p.elements), p.height


def reference_poset(g, element_cap=20_000):
    """The closed-set poset by frozensets: pairwise intersections until
    nothing new appears, then a Hasse scan over all strict inclusions."""
    family = {g.neighbors(v) for v in range(g.n) if g.masks[v]}
    items = sorted(family, key=lambda s: (len(s), tuple(sorted(s))))
    i = 0
    while i < len(items):
        s = items[i]
        for j in range(i):
            c = s & items[j]
            if c and c not in family:
                family.add(c)
                items.append(c)
                if len(family) > element_cap:
                    raise ResourceCapError(
                        f"closed-set family exceeded element cap {element_cap}",
                        partial_count=len(family))
        i += 1

    elements = tuple(sorted((tuple(sorted(s)) for s in family),
                            key=lambda t: (len(t), t)))
    sets = [frozenset(e) for e in elements]
    m = len(sets)
    strict_subs = [[] for _ in range(m)]
    for j in range(m):
        for i2 in range(j):
            if len(sets[i2]) < len(sets[j]) and sets[i2] < sets[j]:
                strict_subs[j].append(i2)
    covers = []
    for j in range(m):
        subs = strict_subs[j]
        for i2 in subs:
            if not any(i2 != k and sets[i2] < sets[k] for k in subs):
                covers.append((i2, j))
    covers.sort()

    heights = [0] * m
    for i2, j in covers:  # element order is a linear extension
        heights[j] = max(heights[j], heights[i2] + 1)
    height = max(heights, default=0) if m else -1
    return ClosedSetPoset(elements, tuple(covers), height)


@settings(max_examples=60, deadline=None)
@given(small_graphs(10), st.sampled_from([None, 5, 10, 40]))
def test_closed_sets_match_the_frozenset_reference(g, cap):
    caps = {} if cap is None else {"element_cap": cap}
    want = capped(reference_poset, g, **caps)
    assert capped(closed_set_poset, g, **caps) == want
    assert capped(closed_set_stats, g, **caps) == (
        want if isinstance(want, str) else (len(want.elements), want.height))
    if g.n <= 7 and not isinstance(want, str):
        # the closed sets are the closures of the nonempty faces of N[G]
        faces = (s for k in range(1, g.n + 1)
                 for s in itertools.combinations(range(g.n), k)
                 if common_neighbors(g, s))
        assert set(want.element_sets()) == {closure(g, s) for s in faces}


@pytest.mark.parametrize("g", [
    complete_graph(2), complete_graph(3), complete_graph(5),
    complete_graph(7), cycle_graph(5), complete_bipartite_graph(3, 4),
    from_family_spec("xn:3"), Graph.from_edges(0, []),
    Graph.from_edges(1, []), Graph.from_edges(3, [])],
    ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_closed_set_stats_match_the_poset_on_named_graphs(g):
    assert closed_set_stats(g) == poset_stats(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.floats(0.0, 1.0), st.integers(0, 2**32),
       st.one_of(st.none(), st.integers(0, 40)))
def test_closed_set_stats_match_the_poset_on_random_graphs(n, p, seed, cap):
    g = gnp_sample(n, p, seed)
    caps = {} if cap is None else {"element_cap": cap}
    assert capped(closed_set_stats, g, **caps) == \
        capped(poset_stats, g, **caps)


def test_closed_set_stats_raise_where_the_poset_does():
    for g, caps in ((complete_graph(20), {}),
                    (gnp_sample(14, 0.5, 12), {"element_cap": 10})):
        message = capped(poset_stats, g, **caps)
        assert isinstance(message, str)
        assert capped(closed_set_stats, g, **caps) == message
    # the walk adds one set at a time and stops at the first past the cap
    for build in (closed_set_stats, closed_set_poset):
        with pytest.raises(ResourceCapError) as err:
            build(complete_graph(20))
        assert err.value.partial_count == 20_001
    # a perfect matching: fourteen neighborhoods and no new intersection,
    # so neither construction counts them against a cap of ten
    matching = Graph.from_edges(14, [(2 * i, 2 * i + 1) for i in range(7)])
    assert closed_set_stats(matching, element_cap=10) == \
        poset_stats(matching, element_cap=10) == (14, 0)


@settings(max_examples=60, deadline=None)
@given(small_graphs(10))
def test_common_neighbors_are_an_involution_on_the_closed_sets(g):
    def common(t):
        return frozenset.intersection(*(g.neighbors(u) for u in t))

    family = set(closed_set_poset(g).element_sets())
    for t in family:
        assert common(t) in family
        assert common(common(t)) == t
    for s in family:
        for t in family:
            if s < t:
                assert common(t) <= common(s)
    want = reference_poset(g)
    assert closed_set_stats(g) == (len(want.elements), want.height)


# ---------------------------------------------------------------------------
# the strong core


def test_core_of_complete_bipartite_complex_is_two_points():
    c = neighborhood_complex(complete_bipartite_graph(3, 4))
    assert c.facets == ((0, 1, 2), (3, 4, 5, 6))
    core = c.strong_core()
    assert core.facets == ((2,), (6,))
    assert core.ground_set == 7


def test_cone_collapses_to_its_apex():
    pentagon = [(i, i % 5 + 1) for i in range(1, 6)]
    cone = SimplicialComplex.from_faces(6, [(0,) + e for e in pentagon])
    assert cone.strong_core().facets == ((0,),)
    # with the apex as the largest label the core is still the apex alone
    late = SimplicialComplex.from_faces(6, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    assert late.strong_core().facets == ((5,),)


def test_core_keeps_undominated_complexes_and_the_empty_one():
    k5 = neighborhood_complex(complete_graph(5))
    assert k5.strong_core() is k5
    empty = SimplicialComplex.from_faces(4, [])
    assert empty.strong_core() == empty
    points = SimplicialComplex.from_faces(3, [(0,), (2,)])
    assert points.strong_core() == points


facet_lists = st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5),
                       max_size=8)


@settings(max_examples=100, deadline=None)
@given(facet_lists, st.one_of(st.none(), st.integers(0, 8)),
       st.integers(-1, 4))
def test_face_enumeration_leaves_out_the_faces_in_the_star_of_the_apex(
        facets, apex, top):
    c = SimplicialComplex.from_faces(8, facets)
    star = [m for m in c.masks if apex is not None and m >> apex & 1]
    got = c.faces_up_to(top, apex=apex)
    want = [tuple(f for f in layer if not any(f & g == f for g in star))
            for layer in c.faces_up_to(top)]
    assert list(got) == want
    # the cap counts the kept faces over all dimensions, and in each
    # dimension the faces of facets missing the apex that it visits
    # inside the star
    away = [m for m in c.masks if m not in star]
    listed = [sum(1 for f in layer
                  if any(f & g == f for g in star)
                  and any(f & m == f for m in away))
              for layer in c.faces_up_to(top)]
    cap = max([sum(map(len, want))] + listed)
    assert c.faces_up_to(top, cap=cap, apex=apex) == got
    if cap:
        with pytest.raises(ResourceCapError) as err:
            c.faces_up_to(top, cap=cap - 1, apex=apex)
        # the walk stops at the face that passes the cap
        assert err.value.partial_count == cap


def test_face_enumeration_walks_only_the_vertices_that_appear():
    # labels 0, 1 and 10**6 against their relabelled copy 0, 1, 2: the
    # walk runs over the three vertices, not over the ground set
    far = 10 ** 6
    c = SimplicialComplex.from_faces(far + 1, [(0, far), (1, far)])
    small = SimplicialComplex.from_faces(3, [(0, 2), (1, 2)])

    def relabel(m):
        return m & 0b11 | (m >> 2) << far

    for apex in (None, 0, 1, 2):
        want = tuple(tuple(sorted(map(relabel, layer)))
                     for layer in small.faces_up_to(2, apex=apex))
        assert c.faces_up_to(2, apex=far if apex == 2 else apex) == want
    hub = 1 << far
    assert c.faces_up_to(1) == ((1, 2, hub), (hub | 1, hub | 2))


def test_strong_core_rewrites_only_the_facets_through_the_deleted_vertex(
        monkeypatch):
    # the 1,000-leaf cone loses its leaves in order, and each deletion
    # hands _maximal only the one facet through the leaf, less the leaf
    cone = parse_facet_list("dim 1\n" + "".join(
        f"{i} 1000\n" for i in range(1000)))
    received = []
    maximal = complexes._maximal

    def counted(masks):
        masks = list(masks)
        received.append(len(masks))
        return maximal(masks)

    monkeypatch.setattr(complexes, "_maximal", counted)
    assert cone.strong_core().facets == ((1000,),)
    assert sum(received) <= 2000


@settings(max_examples=80)
@given(facet_lists)
def test_strong_core_is_an_idempotent_full_subcomplex(facets):
    c = SimplicialComplex.from_faces(8, facets)
    core = c.strong_core()
    assert core.strong_core() == core
    assert core.ground_set == c.ground_set
    assert bool(core.facets) == bool(c.facets)
    assert all(c.is_face(f) for f in core.facets)
    # full: every face of c on the surviving vertices is a face of the core
    kept = set(core.vertices())
    for f in c.facets:
        shared = set(f) & kept
        assert not shared or core.is_face(shared)
    assert core == SimplicialComplex.from_faces(8, core.facets)


@settings(max_examples=40)
@given(small_graphs(8))
def test_strong_core_of_graph_complexes_is_idempotent(g):
    core = neighborhood_complex(g).strong_core()
    assert core.strong_core() == core


# ---------------------------------------------------------------------------
# the order-complex retract


def order_complex(g):
    p = closed_set_poset(g)
    return SimplicialComplex.from_faces(len(p.elements), lovasz_retract(p))


def test_triangle_retract_is_a_hexagon():
    r = order_complex(complete_graph(3))
    assert r.f_vector() == (6, 6)
    assert r.component_count() == 1


def test_tetrahedron_retract_has_24_top_chains():
    r = order_complex(complete_graph(4))
    assert r.f_vector() == (14, 36, 24)
    assert r.dimension == 2


def test_five_cycle_retract_is_a_ten_cycle():
    r = order_complex(cycle_graph(5))
    assert r.f_vector() == (10, 10)
    assert r.component_count() == 1


def test_retract_of_empty_poset_is_empty():
    assert lovasz_retract(closed_set_poset(Graph.from_edges(2, []))) == ()


def test_retract_chain_cap():
    with pytest.raises(ResourceCapError) as err:
        lovasz_retract(closed_set_poset(complete_graph(8)), chain_cap=10)
    assert err.value.partial_count == 10


def test_retract_leaves_no_reference_cycles():
    p = closed_set_poset(complete_graph(7))
    gc.collect()
    gc.disable()
    try:
        r = lovasz_retract(p)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(r) == math.factorial(7)


@settings(max_examples=25)
@given(small_graphs(6))
def test_retract_facets_are_maximal_chains(g):
    p = closed_set_poset(g)
    sets = p.element_sets()
    chains = lovasz_retract(p)
    assert list(chains) == sorted(chains)
    for f in chains:
        assert list(f) == sorted(set(f)) and 0 <= f[0] <= f[-1] < len(sets)
        chain = [sets[i] for i in f]
        for a, b in itertools.combinations(chain, 2):
            assert a < b or b < a
