"""Integer and GF(2) homology: normal forms, boundary maps, the core route."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from nbcomplex import homology
from nbcomplex import (AtLeast, ChainComplexData, Graph, ResourceCapError,
                       SimplicialComplex, boundary_matrices,
                       closed_set_poset, complete_bipartite_graph,
                       complete_graph, cycle_graph, euler_characteristic,
                       gnp_sample, graph_homology, homological_connectivity,
                       homology_integer, lovasz_retract,
                       neighborhood_complex, parse_facet_list,
                       smith_normal_form)
from nbcomplex.graphs import _bits
from nbcomplex.homology import _boundary_columns, betti_field2, gf2_rank

from test_complexes import facet_lists
from test_graphs import small_graphs


def sparse(rows):
    """Columns (row -> nonzero entry dicts) of a dense row-of-rows literal."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    return [{i: rows[i][j] for i in range(nr) if rows[i][j]}
            for j in range(nc)]


def own_faces(c, max_dim=None):
    """Chain data of c's own faces, not its core's: the absolute route the
    core route is checked against."""
    top = max(c.dimension, 0) if max_dim is None else max_dim
    return ChainComplexData(top, c.dimension, c.faces_up_to(top + 1))


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def boundary_composition_is_zero(d):
    """Whether d(k-1) after d(k) vanishes for every k (the chain complex
    law), on the columns homology_integer reduces."""
    for k in range(1, d.max_dim + 2):
        lower = _boundary_columns(d, k - 1)
        for col in _boundary_columns(d, k):
            acc: dict = {}
            for r, v in col.items():
                for r2, v2 in lower[r].items():
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                return False
    return True


# RP^2 on six vertices, the smallest triangulation
RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
              (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]

# torus on seven vertices: the two standard triangle orbits mod 7
TORUS_FACETS = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7)))
                for i in range(7)] + \
               [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7)))
                for i in range(7)]


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_known_matrices():
    assert smith_normal_form(sparse([[2, 4], [6, 8]])) == (2, (2, 4))
    assert smith_normal_form(sparse([[1, 0], [0, 0]])) == (1, (1,))
    assert smith_normal_form(sparse([[0, 0], [0, 0]])) == (0, ())
    assert smith_normal_form(sparse([])) == (0, ())


def test_snf_normalizes_divisibility():
    # diag(6, 10) is not in normal form; invariant factors are 2, 30
    assert smith_normal_form(sparse([[6, 0], [0, 10]])) == (2, (2, 30))


def test_snf_handles_negative_entries():
    rank, factors = smith_normal_form(sparse([[-2, 0], [0, -3]]))
    assert rank == 2
    assert factors == (1, 6)
    assert all(f > 0 for f in factors)


@pytest.mark.parametrize("trial", range(25))
def test_snf_matches_sympy_on_random_matrices(trial):
    rng = random.Random(1000 + trial)
    nr = rng.randint(1, 6)
    nc = rng.randint(1, 6)
    rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
    rank, factors = smith_normal_form(sparse(rows))
    ref_rank, ref_factors = sympy_invariants(rows, nc)
    assert rank == ref_rank
    assert factors == ref_factors


def sympy_invariants(rows, ncols):
    """(rank, invariant factors) of a dense matrix, computed by sympy."""
    if not rows or not ncols:
        return 0, ()
    ref = sympy_snf(Matrix(rows), domain=ZZ)
    factors = tuple(abs(ref[i, i]) for i in range(min(len(rows), ncols))
                    if ref[i, i] != 0)
    return len(factors), factors


# zero for sparsity; among the nonzeros mostly units, so the unit phase
# pivots, and sometimes 2 or 3, so that columns reach the residue phase
unit_heavy_entries = (0,) * 6 + (1, -1) * 4 + (2, -2, 3, -3)
# no unit at all, so the residue phase takes the whole matrix
unitless_entries = (0,) * 4 + (2, -2, 3, -3, 4, -4, 6, -6, 9, -9)


@st.composite
def sparse_int_matrices(draw, entries=unit_heavy_entries):
    nr = draw(st.integers(0, 10))
    nc = draw(st.integers(0, 10))
    row = st.lists(st.sampled_from(entries), min_size=nc, max_size=nc)
    return draw(st.lists(row, min_size=nr, max_size=nr)), nc


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
def test_snf_matches_sympy_on_sparse_unit_heavy_matrices(drawn):
    rows, nc = drawn
    assert smith_normal_form(sparse(rows)) == sympy_invariants(rows, nc)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices(unitless_entries))
def test_snf_matches_sympy_on_matrices_without_units(drawn):
    rows, nc = drawn
    assert smith_normal_form(sparse(rows)) == sympy_invariants(rows, nc)


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_int_matrices(),
                 sparse_int_matrices(unitless_entries)),
       st.randoms(use_true_random=False))
def test_snf_is_invariant_under_row_and_column_permutations(drawn, rnd):
    rows, nc = drawn
    row_order = list(range(len(rows)))
    col_order = list(range(nc))
    rnd.shuffle(row_order)
    rnd.shuffle(col_order)
    permuted = [[rows[i][j] for j in col_order] for i in row_order]
    assert smith_normal_form(sparse(permuted)) == \
        smith_normal_form(sparse(rows))


def test_snf_takes_columns_with_zeros_and_empty_columns():
    # explicit zeros are dropped, empty columns add nothing to the rank
    assert smith_normal_form([{0: 0, 1: 2}, {}, {0: 4, 1: 0}]) == (2, (2, 4))
    assert smith_normal_form([{0: 0}, {}]) == (0, ())
    assert smith_normal_form([{}]) == (0, ())
    assert smith_normal_form([]) == (0, ())
    assert smith_normal_form(({3: 1, 5: 0},)) == (1, (1,))


def test_snf_leaves_the_callers_columns_unchanged():
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1, 2: 0}, {2: 6}]
    before = [dict(col) for col in cols]
    assert smith_normal_form(cols) == (3, (1, 2, 6))
    assert cols == before


def test_snf_reaches_the_residue_phase():
    # either unit pivot of [[1, 1], [1, -1]] leaves the Schur complement
    # [-2], which has no unit entry, so the general reduction takes it
    assert smith_normal_form(sparse([[1, 1], [1, -1]])) == (2, (1, 2))
    diag = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 6, 0], [0, 0, 0, 10]]
    assert smith_normal_form(sparse(diag)) == (4, (1, 1, 2, 30))


@pytest.mark.parametrize("n, facets", [(6, RP2_FACETS), (7, TORUS_FACETS)],
                         ids=["rp2", "torus"])
def test_snf_matches_sympy_on_surface_boundaries(n, facets):
    d = own_faces(SimplicialComplex.from_faces(n, facets))
    for k in range(d.max_dim + 2):
        cols = _boundary_columns(d, k)
        rows = [[col.get(i, 0) for col in cols]
                for i in range(d.face_count(k - 1) if k else 1)]
        assert smith_normal_form(cols) == sympy_invariants(rows, len(cols))


# ---------------------------------------------------------------------------
# clearing: the top-down reduction in homology_integer


# the suspension of RP^2: two cones over it, so H~_2 = Z/2
SUSPENDED_RP2_FACETS = [f + (apex,) for f in RP2_FACETS for apex in (6, 7)]

REFERENCE_COMPLEXES = [(6, RP2_FACETS), (8, SUSPENDED_RP2_FACETS),
                       (7, TORUS_FACETS)]
REFERENCE_IDS = ["rp2", "suspended-rp2", "torus"]


def cleared_reductions(d):
    """What homology_integer hands the Smith reduction, one entry per
    nonempty layer of cells, bottom dimension first: the columns reduced,
    the rank, the invariant factors and the number of unit pivots."""
    seen = []
    reduce = homology._smith_reduce

    def recorded(cols):
        ncols = len(cols)
        rank, factors, pivot_rows = reduce(cols)
        seen.append((ncols, rank, factors, len(pivot_rows)))
        return rank, factors, pivot_rows

    with mock.patch.object(homology, "_smith_reduce", recorded):
        result = homology_integer(d)
    return result, seen[::-1]


def assert_clearing_is_exact(d):
    result, reductions = cleared_reductions(d)
    # a map on an empty layer of cells is neither built nor reduced
    layers = [k for k in range(d.max_dim + 2) if d.face_count(k)]
    assert len(reductions) == len(layers)
    units_at = {k: r[3] for k, r in zip(layers, reductions)}
    for k, (ncols, rank, factors, units) in zip(layers, reductions):
        # cleared: the unit pivot rows of the map above are not columns here
        assert ncols == d.face_count(k) - units_at.get(k + 1, 0)
        assert (rank, factors) == \
            smith_normal_form(_boundary_columns(d, k))
    assert result.field2 == betti_field2(d)
    return reductions


@settings(max_examples=100, deadline=None)
@given(facet_lists)
def test_cleared_reduction_matches_the_full_smith_normal_form(facets):
    assert_clearing_is_exact(own_faces(
        SimplicialComplex.from_faces(8, facets)))


@pytest.mark.parametrize("n, facets", REFERENCE_COMPLEXES, ids=REFERENCE_IDS)
def test_cleared_reduction_matches_on_surfaces_and_torsion(n, facets):
    assert_clearing_is_exact(own_faces(
        SimplicialComplex.from_faces(n, facets)))


def test_clearing_holds_when_the_map_above_leaves_a_residue():
    # RP^2's top boundary map has a residue (its factor 2), yet the cleared
    # edge map still has every factor of the full one
    d = own_faces(SimplicialComplex.from_faces(6, RP2_FACETS))
    reductions = assert_clearing_is_exact(d)
    _, rank, factors, units = reductions[2]
    assert units < rank and 2 in factors
    assert reductions[1][0] < d.face_count(1)


def test_suspended_projective_plane_moves_the_torsion_up():
    d = boundary_matrices(SimplicialComplex.from_faces(8,
                                                       SUSPENDED_RP2_FACETS))
    r = homology_integer(d)
    assert r.betti == (0, 0, 0, 0)
    assert r.torsion == ((), (), (2,), ())
    assert r.field2 == (0, 0, 1, 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
def test_field2_from_invariant_factors_matches_bitset_ranks(n, p, seed):
    d = own_faces(neighborhood_complex(gnp_sample(n, p, seed)))
    assert homology_integer(d).field2 == betti_field2(d)


def test_clearing_skips_the_unit_pivot_rows_of_the_map_above():
    # N[K_6] is the boundary of the 5-simplex, f = (6, 15, 20, 15, 6): top
    # down, each map's unit pivots clear as many columns of the next
    d = own_faces(neighborhood_complex(complete_graph(6)))
    reductions = assert_clearing_is_exact(d)
    assert [ncols for ncols, _, _, _ in reductions] == [1, 5, 10, 10, 6]
    assert [units for _, _, _, units in reductions] == [1, 5, 10, 10, 5]


# ---------------------------------------------------------------------------
# GF(2) rank


def test_gf2_rank_examples():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2  # third row = xor of first two
    assert gf2_rank([0b1, 0b10, 0b100]) == 3
    assert gf2_rank([0, 0]) == 0


def test_gf2_rank_is_invariant_under_row_xor():
    rng = random.Random(7)
    rows = [rng.getrandbits(12) for _ in range(8)]
    r = gf2_rank(rows)
    mixed = list(rows)
    mixed[0] ^= mixed[3]
    mixed[5] ^= mixed[1] ^ mixed[2]
    assert gf2_rank(mixed) == r


# ---------------------------------------------------------------------------
# boundary matrices


def test_boundary_of_a_triangle():
    c = SimplicialComplex.from_faces(3, [(0, 1, 2)])
    d = own_faces(c)
    assert d.max_dim == 2 and not d.truncated
    assert d.faces[1] == (0b011, 0b101, 0b110)
    # augmentation row: ones
    assert _boundary_columns(d, 0) == [{0: 1}] * 3
    # edge (0,1) has boundary [1] - [0]
    col = _boundary_columns(d, 1)[0]
    assert col == {0: -1, 1: 1}
    # the builder stands the triangle's core, the vertex 2, in for it, and
    # that vertex's star is all of the core: no cell is left
    core = boundary_matrices(c)
    assert core.max_dim == 2 and core.complex_dim == 2
    assert core.relative_to == 2 and core.faces == ((), (), (), ())
    assert homology_integer(core) == homology_integer(d)


def test_boundary_matrices_on_empty_complex():
    c = SimplicialComplex.from_faces(3, [])
    d = boundary_matrices(c)
    assert d.max_dim == 0 and d.face_count(0) == 0
    r = homology_integer(d)
    assert r.empty and r.betti == (0,)


def test_boundary_matrices_refuse_a_negative_max_dim():
    c = neighborhood_complex(complete_graph(4))
    with pytest.raises(ValueError) as err:
        boundary_matrices(c, max_dim=-1)
    assert str(err.value) == "max_dim must be nonnegative, got -1"


@settings(max_examples=80, deadline=None)
@given(facet_lists, st.sets(st.integers(0, 60)))
def test_mask_faces_and_columns_match_the_tuple_reference(facets, skip):
    c = SimplicialComplex.from_faces(8, facets)
    d = own_faces(c)
    layers = d.faces
    for k, layer in enumerate(layers):
        assert all(a < b for a, b in zip(layer, layer[1:]))
        want = {t for f in c.facets for t in itertools.combinations(f, k + 1)}
        assert sorted(tuple(_bits(m)) for m in layer) == sorted(want)
    assert homology._boundary_columns(d, 0, skip) == [
        {0: 1} for j in range(len(layers[0])) if j not in skip]
    for k in range(1, len(layers)):
        row = {tuple(_bits(m)): i for i, m in enumerate(layers[k - 1])}
        want = []
        for j, f in enumerate(layers[k]):
            if j not in skip:
                t = tuple(_bits(f))
                want.append({row[t[:i] + t[i + 1:]]: (-1) ** i
                             for i in range(k + 1)})
        assert homology._boundary_columns(d, k, skip) == want


@settings(max_examples=30)
@given(small_graphs(6))
def test_boundary_composition_vanishes(g):
    assert boundary_composition_is_zero(own_faces(neighborhood_complex(g)))
    assert boundary_composition_is_zero(
        boundary_matrices(neighborhood_complex(g)))


def test_boundary_face_cap():
    # the cap counts the cells outside the star, and the star's faces
    # visited in each dimension: N[K_8] has one cell, {1, ..., 7}, and the
    # star of vertex 0 meets it in the faces of 7 vertices, 35 of the most
    # in one dimension
    c = neighborhood_complex(complete_graph(8))
    assert boundary_matrices(c, face_cap=35).faces[6] == (0b11111110,)
    with pytest.raises(ResourceCapError, match="left-out faces"):
        boundary_matrices(c, face_cap=34)
    # the cap bounds the total through max_dim+1, not each dimension: the
    # torus less the star of vertex 0 has 9 + 8 cells, no dimension over 9
    c = SimplicialComplex.from_faces(7, TORUS_FACETS)
    assert boundary_matrices(c, face_cap=17).face_count(2) == 8
    with pytest.raises(ResourceCapError):
        boundary_matrices(c, face_cap=16)


# ---------------------------------------------------------------------------
# homology of reference spaces


def test_projective_plane_torsion_and_field2():
    d = boundary_matrices(SimplicialComplex.from_faces(6, RP2_FACETS))
    r = homology_integer(d)
    assert r.betti == (0, 0, 0)
    assert r.torsion == ((), (2,), ())
    assert r.field2 == (0, 1, 1)
    # universal coefficients: the 2-torsion class shows up over GF(2)
    # once in its own dimension and once above
    assert homological_connectivity(r) == 0


def test_torus_betti_numbers():
    c = SimplicialComplex.from_faces(7, TORUS_FACETS)
    assert c.f_vector() == (7, 21, 14)
    d = boundary_matrices(c)
    r = homology_integer(d)
    assert r.betti == (0, 2, 1)
    assert r.torsion == ((), (), ())
    assert r.field2 == (0, 2, 1)
    assert euler_characteristic(c, d) == 0


@pytest.mark.parametrize("m", range(2, 7))
def test_complete_graph_complex_is_a_sphere(m):
    r, source = graph_homology(complete_graph(m))
    want = tuple(1 if k == m - 2 else 0 for k in range(m - 1))
    assert r.betti == want
    assert r.field2 == want
    assert all(t == () for t in r.torsion)


def test_five_cycle_complex_is_a_circle():
    r, _ = graph_homology(cycle_graph(5))
    assert r.betti == (0, 1)
    assert homological_connectivity(r) == 0


def test_single_edge_complex_is_two_points():
    r, _ = graph_homology(complete_graph(2))
    assert r.betti == (1,)
    assert homological_connectivity(r) == -1


# ---------------------------------------------------------------------------
# Euler characteristic


def test_euler_characteristic_matches_betti_sum():
    g = gnp_sample(8, 0.5, 99)
    c = neighborhood_complex(g)
    d = boundary_matrices(c)
    r = homology_integer(d)
    chi = euler_characteristic(c, d)
    assert chi == 1 + sum((-1) ** k * b for k, b in enumerate(r.betti))
    # the core's face counts give the complex's own chi
    assert chi == euler_characteristic(c, own_faces(c))


def test_euler_characteristic_rejects_truncated_data():
    c = neighborhood_complex(complete_graph(6))
    d = boundary_matrices(c, max_dim=1)
    assert d.truncated
    with pytest.raises(ValueError):
        euler_characteristic(c, d)


# ---------------------------------------------------------------------------
# connectivity sentinel


def test_connectivity_of_a_three_sphere():
    r, _ = graph_homology(complete_graph(5))
    assert homological_connectivity(r) == 2


def test_connectivity_sentinel_when_everything_vanishes():
    r, _ = graph_homology(complete_graph(5), max_dim=2)
    conn = homological_connectivity(r)
    assert conn == AtLeast(2)
    assert str(conn) == ">=2"


def test_empty_complex_connectivity():
    r, _ = graph_homology(Graph.from_edges(3, []))
    assert r.empty
    # H~_{-1} of the empty complex is Z, so Lovasz's chi >= conn + 3 gives
    # 1 for an edgeless graph
    assert homological_connectivity(r) == -2
    # a point, two points and a 2-sphere
    for facets, conn in (([(0,)], AtLeast(0)), ([(0,), (1,)], -1),
                         (list(itertools.combinations(range(4), 3)), 1)):
        c = SimplicialComplex.from_faces(4, facets)
        r = homology_integer(boundary_matrices(c))
        assert not r.empty
        assert homological_connectivity(r) == conn


# ---------------------------------------------------------------------------
# the strong-core route


def padded(r, width):
    """(betti, torsion, field2) of a result, zero-padded to ``width``."""
    extra = width - len(r.betti)
    return (r.betti + (0,) * extra, r.torsion + ((),) * extra,
            r.field2 + (0,) * extra)


def test_bipartite_graph_collapses_to_its_core():
    # N[K_{3,4}] is a 2-simplex beside a 3-simplex; its core is two points
    r, source = graph_homology(complete_bipartite_graph(3, 4))
    assert source == "direct"
    assert r.betti == (1, 0, 0, 0)
    assert r.torsion == ((), (), (), ())
    assert not r.truncated and not r.empty


def test_complete_graph_takes_the_direct_route():
    # N[K_6] is the boundary of a 5-simplex: no vertex is dominated
    r, source = graph_homology(complete_graph(6))
    assert source == "direct"
    assert r.betti == (0, 0, 0, 0, 1)


def test_retract_route_agrees_with_direct_on_samples():
    # graph_homology against both independent pipelines: the unfolded
    # neighborhood complex and the order complex of the closed-set poset
    for seed in range(6):
        g = gnp_sample(8, 0.45, 2200 + seed)
        got, source = graph_homology(g)
        assert source == "direct"
        direct = homology_integer(own_faces(neighborhood_complex(g)))
        p = closed_set_poset(g)
        retract = homology_integer(own_faces(
            SimplicialComplex.from_faces(len(p.elements), lovasz_retract(p))))
        width = max(len(got.betti), len(retract.betti))
        assert padded(got, width) == padded(direct, width)
        assert padded(got, width) == padded(retract, width)


def test_max_dim_truncation_flag():
    r, _ = graph_homology(complete_graph(6), max_dim=2)
    assert r.truncated
    assert r.betti == (0, 0, 0)
    full, _ = graph_homology(complete_graph(6))
    assert not full.truncated
    assert full.betti[:3] == r.betti


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 7), p=st.floats(0.0, 1.0), seed=st.integers(0, 999),
       max_dim=st.sampled_from((None, 0, 1, 2)))
@example(n=4, p=0.5, seed=2, max_dim=0)
def test_result_does_not_depend_on_the_route(n, p, seed, max_dim):
    # the core route equals the unfolded complex's, padding and flags too
    g = gnp_sample(n, p, seed)
    routed, _ = graph_homology(g, max_dim=max_dim)
    nc = neighborhood_complex(g)
    direct = homology_integer(own_faces(nc, max_dim=max_dim))
    assert routed == direct
    dim = nc.dimension
    assert routed.truncated == (max_dim is not None and max_dim < dim)


def largest_star_vertex(c):
    """The vertex with the largest sum of 2**|F| over the facets F through
    it, the lowest on ties."""
    return max(c.vertices(),
               key=lambda v: sum(2 ** len(f) for f in c.facets if v in f))


def test_graph_homology_enumerates_faces_once_on_the_core(monkeypatch):
    seen = []
    enumerate_faces = SimplicialComplex.faces_up_to

    def counted(self, top, cap=None, apex=None):
        seen.append((self, apex))
        return enumerate_faces(self, top, cap, apex)

    monkeypatch.setattr(SimplicialComplex, "faces_up_to", counted)
    for g in (complete_bipartite_graph(3, 4), complete_graph(6),
              gnp_sample(9, 0.5, 4)):
        core = neighborhood_complex(g).strong_core()
        v = largest_star_vertex(core)
        seen.clear()
        graph_homology(g)
        assert seen == [(core, v)]


def test_face_cap_exhausts_every_route():
    # N[K_10] has no dominated vertex, so its core is all 1,022 faces; the
    # only one outside the star of vertex 0 is the facet {1, ..., 9}, and
    # the star's faces inside it number C(9, 4) = 126 in dimension 3
    with pytest.raises(ResourceCapError):
        graph_homology(complete_graph(10), face_cap=125)
    r, _ = graph_homology(complete_graph(10), face_cap=126)
    assert r.betti == (0,) * 8 + (1,)


def test_face_cap_stops_a_dense_core_inside_the_star():
    # N[K_20] leaves one cell, {1, ..., 19}, outside the star of vertex 0,
    # and every other subset of it lies in the star.  The walk visits them
    # in lexicographic order: the 10-faces through 1, 2, 3 number
    # C(16, 8) = 12,870, those through 1, 2, 4 add C(15, 8) = 6,435, no
    # dimension has passed 20,000 by then, and the faces through 1, 2, 5
    # pass it in dimension 10 first
    with pytest.raises(ResourceCapError) as err:
        graph_homology(complete_graph(20), face_cap=20_000)
    assert str(err.value) == \
        "left-out faces exceeded cap 20000 in dimension 10"
    assert err.value.partial_count == 20_001


def test_face_cap_stops_the_walk_at_the_face_that_passes_it():
    with pytest.raises(ResourceCapError) as err:
        graph_homology(gnp_sample(60, 0.9, 1), max_dim=4, face_cap=20_000)
    assert err.value.partial_count == 20_001


def test_face_cap_counts_the_core_faces():
    # N[K_{3,4}] has 22 faces; its core has 2, the two points, and 1 of
    # them lies outside the star of the other
    g = complete_bipartite_graph(3, 4)
    r, _ = graph_homology(g, face_cap=1)
    assert r.betti == (1, 0, 0, 0)
    with pytest.raises(ResourceCapError):
        graph_homology(g, face_cap=0)
    with pytest.raises(ResourceCapError):
        neighborhood_complex(g).faces_up_to(3, cap=21)


def assert_core_keeps_homology(c):
    full = homology_integer(own_faces(c))
    core = homology_integer(own_faces(c.strong_core()))
    width = max(len(full.betti), len(core.betti))
    assert padded(full, width) == padded(core, width)
    assert full.empty == core.empty
    # and so does every pair (c, st v)
    for v in c.vertices():
        assert homology_integer(relative_chains(c, v)) == full


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_strong_core_keeps_homology_of_facet_lists(facets):
    assert_core_keeps_homology(SimplicialComplex.from_faces(8, facets))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
def test_strong_core_keeps_homology_of_random_graphs(n, p, seed):
    assert_core_keeps_homology(neighborhood_complex(gnp_sample(n, p, seed)))


@pytest.mark.parametrize("facets, n, torsion", [
    (RP2_FACETS, 6, ((), (2,), ())),
    (TORUS_FACETS, 7, ((), (), ())),
], ids=["rp2", "torus"])
def test_surfaces_have_no_dominated_vertex_and_keep_torsion(facets, n,
                                                             torsion):
    c = SimplicialComplex.from_faces(n, facets)
    assert c.strong_core() == c
    r = homology_integer(boundary_matrices(c))
    assert r.torsion == torsion
    assert r.field2 == ((0, 1, 1) if torsion[1] else (0, 2, 1))


def test_boundary_matrices_keep_the_input_width_and_flags():
    # a cone over RP^2 is contractible: its core is a point, its torsion gone
    cone = SimplicialComplex.from_faces(7, [f + (6,) for f in RP2_FACETS])
    d = boundary_matrices(cone, max_dim=1)
    assert d.truncated and d.complex_dim == 3
    # the core is the apex 6, inside its own star, so no cell is left
    assert d.relative_to == 6 and d.faces == ((), (), ())
    r = homology_integer(d)
    assert r.betti == (0, 0) and r.torsion == ((), ())
    assert not r.empty
    full = homology_integer(boundary_matrices(cone))
    assert full.betti == (0, 0, 0, 0) and full.field2 == (0, 0, 0, 0)
    assert not full.truncated
    empty = homology_integer(boundary_matrices(
        SimplicialComplex.from_faces(3, [])))
    assert empty.empty and empty.betti == (0,)


def test_boundary_matrices_of_a_cone_with_a_far_apex_stay_cheap():
    # 1,000 edges to the hub 100000: the core is the hub, chosen as the
    # apex from the core's own vertices, not from the 100,001 labels
    cone = parse_facet_list("dim 1\n" + "".join(
        f"{i} 100000\n" for i in range(1000)))
    start = time.perf_counter()
    d = boundary_matrices(cone)
    assert time.perf_counter() - start < 2.0
    assert d.relative_to == 100000 and d.faces == ((), (), ())


def test_result_json_shape():
    r, _ = graph_homology(cycle_graph(5))
    d = r.to_json_dict()
    assert d == {"betti": [0, 1], "torsion": [[], []],
                 "field2": [0, 1], "truncated": False}


# ---------------------------------------------------------------------------
# homology relative to a vertex star


def relative_chains(c, v, max_dim=None):
    """Chain data of the pair (c, st v): the faces of c outside the star of
    its vertex v, from the face walk with v as its apex."""
    top = max(c.dimension, 0) if max_dim is None else max_dim
    return ChainComplexData(top, c.dimension,
                            c.faces_up_to(top + 1, apex=v), v)


def all_subsets_chains(c):
    """Faces of c by dimension, from every vertex subset that lies in some
    facet, and the dense matrix (rows of entries) of the boundary map on
    each dimension, the augmentation row of ones first.  Shares no code
    with faces_up_to or _boundary_columns."""
    layers = [[()]]  # the empty face, the augmentation's one row
    for size in range(1, c.ground_set + 1):
        layer = [s for s in itertools.combinations(range(c.ground_set), size)
                 if c.is_face(s)]
        if not layer:
            break
        layers.append(layer)
    maps = []
    for lower, upper in zip(layers, layers[1:]):
        index = {f: i for i, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for j, f in enumerate(upper):
            for drop in range(len(f)):
                rows[index[f[:drop] + f[drop + 1:]]][j] = (-1) ** drop
        maps.append(rows)
    return layers[1:], maps


def all_subsets_betti(c):
    """Reduced Betti numbers of c by rational ranks of its all-subsets
    boundary matrices."""
    faces, maps = all_subsets_chains(c)
    ranks = [rational_rank(rows) for rows in maps] + [0]
    return tuple(len(faces[k]) - ranks[k] - ranks[k + 1]
                 for k in range(len(faces)))


def sympy_homology(c):
    """Reduced Betti numbers and torsion of c from sympy's Smith normal
    form of its all-subsets boundary matrices."""
    faces, maps = all_subsets_chains(c)
    snf = [sympy_invariants(rows, len(rows[0])) for rows in maps] + [(0, ())]
    betti = tuple(len(faces[k]) - snf[k][0] - snf[k + 1][0]
                  for k in range(len(faces)))
    torsion = tuple(tuple(f for f in snf[k + 1][1] if f > 1)
                    for k in range(len(faces)))
    return betti, torsion


CONE_RP2_FACETS = [f + (6,) for f in RP2_FACETS]

# named complexes, each with the ground set its facets live on
ORACLE_COMPLEXES = {
    "rp2": (6, RP2_FACETS),
    "torus": (7, TORUS_FACETS),
    "cone-rp2": (7, CONE_RP2_FACETS),
    "suspended-rp2": (8, SUSPENDED_RP2_FACETS),
    **{f"nk{n}": (n, neighborhood_complex(complete_graph(n)).facets)
       for n in range(2, 7)},
    # the complete graph K_5 itself, as a 1-dimensional complex
    "k5": (5, list(itertools.combinations(range(5), 2))),
}


def random_facets(seed):
    """A seeded facet list on 7 vertices: 3 to 12 facets of 1 to 4
    vertices."""
    rng = random.Random(5000 + seed)
    return [rng.sample(range(7), rng.randint(1, 4))
            for _ in range(rng.randint(3, 12))]


def assert_relative_homology_matches_the_oracles(c):
    absolute = homology_integer(own_faces(c))
    betti, torsion = sympy_homology(c)
    assert absolute.betti == betti == all_subsets_betti(c)
    assert absolute.torsion == torsion
    chi = euler_characteristic(c, own_faces(c))
    for v in c.vertices():
        d = relative_chains(c, v)
        assert d.relative_to == v
        assert boundary_composition_is_zero(d)
        result = homology_integer(d)
        assert result == absolute, f"relative to {v}"
        assert betti_field2(d) == result.field2
        assert euler_characteristic(c, d) == chi
        # a truncated pair keeps the absolute route's flags and prefix
        low = homology_integer(relative_chains(c, v, max_dim=0))
        assert low == homology_integer(own_faces(c, max_dim=0))
    # and the builder's own choice, on the strong core
    assert homology_integer(boundary_matrices(c)) == absolute


@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
def test_relative_homology_matches_the_oracles_for_every_vertex(name):
    n, facets = ORACLE_COMPLEXES[name]
    assert_relative_homology_matches_the_oracles(
        SimplicialComplex.from_faces(n, facets))


@pytest.mark.parametrize("seed", range(16))
def test_relative_homology_of_random_complexes_for_every_vertex(seed):
    assert_relative_homology_matches_the_oracles(
        SimplicialComplex.from_faces(7, random_facets(seed)))


def own_star_vertex(c):
    """The vertex boundary_matrices takes on a complex that is its own
    strong core."""
    assert c.strong_core() == c
    return boundary_matrices(c).relative_to


def test_builder_takes_the_vertex_with_the_largest_star():
    # the torus is vertex-transitive, so the lowest label wins the tie
    torus = SimplicialComplex.from_faces(7, TORUS_FACETS)
    assert own_star_vertex(torus) == 0
    # a square and a triangle sharing vertex 3, which weighs 4 * 2**2
    c = SimplicialComplex.from_faces(
        6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (3, 5)])
    assert own_star_vertex(c) == 3 == largest_star_vertex(c)
    # the cone over RP^2 collapses to its apex, the star of which is all
    cone = SimplicialComplex.from_faces(7, CONE_RP2_FACETS)
    assert boundary_matrices(cone).relative_to == 6


def test_empty_comes_from_the_dimension_not_the_cells():
    # a contractible core leaves no relative cell, yet is no empty complex
    cone = SimplicialComplex.from_faces(7, CONE_RP2_FACETS)
    d = boundary_matrices(cone)
    assert all(layer == () for layer in d.faces)
    r = homology_integer(d)
    assert not r.empty and r.betti == (0, 0, 0, 0)
    assert euler_characteristic(cone, d) == 1
    empty = SimplicialComplex.from_faces(3, [])
    d = boundary_matrices(empty)
    assert d.relative_to is None and d.complex_dim == -1
    assert homology_integer(d).empty
    assert euler_characteristic(empty, d) == 0
