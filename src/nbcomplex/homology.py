"""Exact reduced simplicial homology over the integers and over GF(2).

Homology is computed on a complex's strong core (Barmak–Minian), which
has the complex's homotopy type, relative to the closed star of one core
vertex.  A closed star st v is a cone with apex v, so it is acyclic, and
the long exact sequence of the pair (K, st v) gives H~_k(K) = H_k(K, st v)
for every k, over Z, torsion included (Hatcher, *Algebraic Topology*,
§2.1).  :func:`boundary_matrices` therefore enumerates only the core's
faces outside the star of the vertex with the largest star, and the
boundary maps drop the rows inside it; the empty face lies in the star,
so there is no augmentation row, and the relative Betti numbers are the
reduced ones.  That cuts away an acyclic part of the chain complex before
any reduction, as coreductions do (Mrozek–Batko, "Coreduction homology
algorithm", 2009), at no cost in fill-in; the answer is exact for every
choice of vertex.  Integer ranks and torsion come from an exact Smith
normal form in arbitrary-precision integers (:func:`_smith_reduce`: unit
pivots, then the residue).

Integer homology reduces the boundary maps from the top dimension down and
clears as it goes: a k-cell that was a unit pivot row of the map on
(k+1)-cells is never assembled as a column of the map on k-cells.  The unit
pivots form a square block of determinant +-1, so the cleared columns are
integer combinations of the kept ones (see :func:`homology_integer`); the
column lattice and every invariant factor stay the same, whether or not the
map above left a residue, and the relative chains are a chain complex like
any other.  GF(2) Betti numbers are no separate computation: by universal
coefficients they follow from the integer Betti numbers and torsion
(:attr:`HomologyResult.field2`).  Bitset elimination over GF(2)
(:func:`betti_field2`) and the public :func:`smith_normal_form` are no
route of their own: they stay only as the tests' independent checks, and
the tests build a complex's own (absolute) chains to check the relative
ones against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Collection, NamedTuple, Optional, Sequence, Union

from .complexes import SimplicialComplex, neighborhood_complex
from .graphs import _bits


def gf2_rank(vectors: list[int]) -> int:
    """Rank over GF(2) of vectors (rows or columns) given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for vector in vectors:
        cur = vector
        while cur:
            top = cur.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = cur
                rank += 1
                break
            cur ^= piv
    return rank


def smith_normal_form(cols: Sequence[dict]) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors of an integer matrix given by its columns,
    each a row -> entry mapping.  Zero entries are dropped, and the
    caller's mappings are left as they were."""
    rank, factors, _ = _smith_reduce(
        [{r: v for r, v in col.items() if v} for col in cols])
    return rank, factors


def _smith_reduce(cols: list[dict]
                  ) -> tuple[int, tuple[int, ...], list[int]]:
    """Rank and invariant factors of the matrix whose columns are the
    row -> nonzero entry dicts ``cols``, which it consumes; also returns
    the unit phase's pivot rows.

    Two phases.  The unit phase walks the columns in index order and, in
    each live column holding a +-1 entry, pivots on the one whose row has
    the fewest nonzeros (the first such in the column on ties).  It
    subtracts the matching multiple of the pivot column from every other
    column meeting that row, then drops the pivot row and column and counts
    one unit invariant factor.  That is a Schur complement on a unit pivot,
    reached by unimodular column and row operations, so over Z the
    remaining matrix has the same invariant factors less one 1; no
    division or rounding ever happens.

    Columns that held no +-1 entry when their turn came form the residue,
    and the residue phase works on the same columns.  Its pivot is the
    live entry v of least absolute value (ties to the smaller row, then
    the smaller column).  Column operations reduce the other entries of
    v's row modulo v; once v is alone in its row, a row operation changes
    only v's column, so that column is reduced modulo v too.  A nonzero
    remainder is smaller than |v| and becomes the next pivot; a v alone
    in its row and its column is an invariant factor.  One pass of gcd/lcm
    swaps over the pairs i < j of those factors then makes the chain
    d1 | d2 | ...: after pairing with every later entry, d_i divides them
    all, and later swaps keep that.  The unit factors divide everything,
    so they lead the chain without entering that pass.

    The unit phase's pivot rows, with the pivot columns, span a square
    block whose determinant is the product of the pivots, +-1, however
    large the residue; that is what lets :func:`homology_integer` clear
    those rows from the next boundary map down.
    """
    members: dict[int, set] = {}  # row -> columns with a nonzero there
    for c, col in enumerate(cols):
        for r in col:
            members.setdefault(r, set()).add(c)
    pivot_rows: list[int] = []
    for c, col in enumerate(cols):
        r, fewest = None, len(cols) + 1  # no row meets more columns
        for i, v in col.items():
            if (v == 1 or v == -1) and len(members[i]) < fewest:
                r, fewest = i, len(members[i])
        if r is None:
            continue
        v = col.pop(r)
        for c2 in members.pop(r):
            if c2 == c:
                continue
            other = cols[c2]
            q = other.pop(r) * v  # v is its own inverse
            for i, a in col.items():
                if i not in other:
                    other[i] = -q * a
                    members[i].add(c2)
                elif other[i] != q * a:
                    other[i] -= q * a
                else:
                    del other[i]
                    members[i].discard(c2)
        for i in col:
            members[i].discard(c)
        col.clear()
        pivot_rows.append(r)
    units = len(pivot_rows)

    diag: list[int] = []
    while any(cols):
        _, r, c = min((abs(v), i, j) for j, col in enumerate(cols)
                      for i, v in col.items())
        col = cols[c]
        v = col[r]
        for c2 in members[r] - {c}:
            other = cols[c2]
            q = other[r] // v  # nonzero: |v| is the least live entry
            for i, a in col.items():
                w = other.get(i, 0) - q * a
                if w:
                    other[i] = w
                    members[i].add(c2)
                else:
                    del other[i]
                    members[i].discard(c2)
        if len(members[r]) > 1:
            continue  # remainders smaller than |v| left in row r
        for i in [i for i in col if i != r]:
            w = col[i] % v  # row r is v alone, so only this entry changes
            if w:
                col[i] = w
            else:
                del col[i]
                members[i].discard(c)
        if len(col) == 1:
            diag.append(abs(v))
            col.clear()
            members[r].discard(c)

    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return units + len(diag), (1,) * units + tuple(diag), pivot_rows


# ---------------------------------------------------------------------------
# chain complex assembly


@dataclass(frozen=True)
class ChainComplexData:
    """Cells of a chain complex for dimensions 0..max_dim+1.

    ``faces[k]`` lists the dimension-k cells as ascending vertex bitmasks;
    :func:`_boundary_columns` assembles the boundary maps from them.
    ``complex_dim`` is the dimension of the complex the chains stand for.
    With ``relative_to`` None the cells are all faces of a complex and the
    map on 0-faces is the augmentation.  With ``relative_to`` a vertex v
    they are the faces outside its closed star, the chains of the pair
    (K, st v): rows inside the star are dropped, the empty face among them,
    so there is no augmentation.
    """

    max_dim: int
    complex_dim: int
    faces: tuple[tuple[int, ...], ...]
    relative_to: Optional[int] = None

    @property
    def truncated(self) -> bool:
        return self.max_dim < self.complex_dim

    def face_count(self, k: int) -> int:
        return len(self.faces[k]) if 0 <= k < len(self.faces) else 0


def _boundary_columns(d: ChainComplexData, k: int,
                      skip: Collection[int] = ()) -> list[dict]:
    """Columns of the boundary map on the k-cells ``d.faces[k]``, leaving
    out those whose index is in ``skip``.

    Column j maps row indices into ``d.faces[k-1]`` to entries.  The rows
    are the face less one set bit, dropped from the lowest up with
    alternating sign: dropping the i-th lowest bit, that is the i-th
    smallest vertex, carries (-1)**i.  A row missing from ``d.faces[k-1]``
    is dropped, which is the quotient by a subcomplex holding it.  For
    k = 0 the one row is the empty face: the augmentation entry 1 on a
    complex's own faces, and dropped on relative data (the empty face lies
    in the star), leaving each column empty.
    """
    if k:
        below = d.faces[k - 1]
    else:
        below = (0,) if d.relative_to is None else ()
    index = {f: i for i, f in enumerate(below)}
    cols = []
    for j, f in enumerate(d.faces[k]):
        if j in skip:
            continue
        col = {}
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            i = index.get(f ^ low)
            if i is not None:
                col[i] = sign
            sign = -sign
            rest ^= low
        cols.append(col)
    return cols


def boundary_matrices(c: SimplicialComplex, max_dim: Optional[int] = None,
                      face_cap: int = 500_000) -> ChainComplexData:
    """Chain data of the pair (core, st v), standing in for that of c.

    The strong core of c has c's homotopy type.  Its vertex v with the
    largest sum of 2**|F| over the core facets F through it (the lowest
    label on ties) is a cone point of its closed star st v, which is
    therefore acyclic; the long exact sequence of the pair then gives
    H~_k(core) = H_k(core, st v) for every k, over Z, torsion included.
    The cells are the core's faces outside st v, that is the faces of core
    facets missing v that lie in no core facet through v, listed by the
    face walk of ``SimplicialComplex.faces_up_to`` with those facets
    excluded.  The answer is exact whichever vertex is chosen; the rule
    only aims at the largest star, which leaves the fewest cells.

    Dimensions 0..max_dim are covered (all of c's when max_dim is None),
    those above the core's dimension with empty layers, and
    ``complex_dim`` is c's own, so ``truncated`` means max_dim < dim c.
    ``face_cap`` caps the faces that walk visits: the cells of dimensions
    0..max_dim+1 in total, and in each of those dimensions the star faces
    it passes, so a dense core lying almost wholly in the star is still
    abandoned early.  The empty complex has no core vertex and gives
    empty layers with ``relative_to`` None.
    """
    if max_dim is None:
        max_dim = max(c.dimension, 0)
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    core = c.strong_core()
    weight = [0] * c.ground_set
    for m in core.masks:
        size = 1 << m.bit_count()
        for v in _bits(m):
            weight[v] += size
    apex = None
    if core.masks:
        # max keeps the first of equal weights, so the lowest label wins
        apex = max(range(c.ground_set), key=weight.__getitem__)
    return _relative_chains(core, apex, max_dim, c.dimension, face_cap)


def _relative_chains(k: SimplicialComplex, v: Optional[int], max_dim: int,
                     complex_dim: int, face_cap: Optional[int] = None
                     ) -> ChainComplexData:
    """Chain data of the pair (k, st v) for dimensions 0..max_dim, standing
    for a complex of dimension ``complex_dim``: the faces of k outside the
    closed star of its vertex v (v None only when k is empty), capped by
    ``face_cap`` as in :func:`boundary_matrices`."""
    star = [m for m in k.masks if m >> v & 1]
    return ChainComplexData(max_dim, complex_dim, k.faces_up_to(
        max_dim + 1, cap=face_cap, exclude=star), v)


# ---------------------------------------------------------------------------
# results


class AtLeast(NamedTuple):
    """Sentinel for 'no nonvanishing homology found up to this dimension'."""

    bound: int

    def __str__(self) -> str:
        return f">={self.bound}"


@dataclass(frozen=True)
class HomologyResult:
    """Reduced homology in dimensions 0..max_dim.

    ``betti`` are free ranks over the integers; ``torsion[k]`` lists the
    nontrivial invariant factors of H_k in divisibility order.  ``empty``
    marks the empty complex (``complex_dim`` below 0), whose reported
    groups all vanish.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    truncated: bool
    empty: bool

    @property
    def max_dim(self) -> int:
        return len(self.betti) - 1

    @property
    def field2(self) -> tuple[int, ...]:
        """Reduced Betti numbers over GF(2), by universal coefficients.

        H_k(X; Z/2) = H_k (x) Z/2 + Tor(H_{k-1}, Z/2): each free rank and
        each even invariant factor of H_k and of H_{k-1} adds one.
        """
        even = [sum(1 for f in t if not f & 1) for t in self.torsion]
        return tuple(b + even[k] + (even[k - 1] if k else 0)
                     for k, b in enumerate(self.betti))

    def to_json_dict(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "field2": list(self.field2),
            "truncated": self.truncated,
        }


def betti_field2(d: ChainComplexData) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2) for dimensions 0..max_dim.

    Each boundary column becomes one bitmask of its rows (every entry is
    +-1, so odd); a map's rank over GF(2) is that of its columns.  On
    relative data the star's rows are dropped, as in the integer route.
    """
    ranks = [gf2_rank([sum(1 << r for r in col)
                       for col in _boundary_columns(d, k)])
             for k in range(d.max_dim + 2)]
    return tuple(d.face_count(k) - ranks[k] - ranks[k + 1]
                 for k in range(d.max_dim + 1))


def homology_integer(d: ChainComplexData) -> HomologyResult:
    """Exact integer homology (free ranks plus torsion) from chain data.

    The boundary maps are reduced from the top dimension down, and a
    k-face that was a unit pivot row of the boundary map above is never
    assembled as a column of the boundary map on k-faces (clearing).  That
    keeps every invariant factor, residue or not: the unit pivots (R, C)
    of the map above, D, form a square block whose determinant is their
    product, +-1, so from d_k D = 0,
    d_k[:, R] = -d_k[:, not R] D[not R, C] D[R, C]^-1 with an integer
    inverse.  The dropped columns are integer combinations of the kept
    ones, so the column lattice, the rank and the factors are unchanged.

    The result's GF(2) Betti numbers are derived from its Betti numbers and
    torsion (:attr:`HomologyResult.field2`); nothing more is reduced.
    """
    snf = []
    cleared = frozenset()
    for k in range(d.max_dim + 1, -1, -1):
        rank, factors, pivot_rows = _smith_reduce(
            _boundary_columns(d, k, cleared))
        snf.append((rank, factors))
        cleared = frozenset(pivot_rows)
    snf.reverse()
    betti = []
    torsion = []
    for k in range(d.max_dim + 1):
        rank_k = snf[k][0]
        rank_up = snf[k + 1][0]
        betti.append(d.face_count(k) - rank_k - rank_up)
        torsion.append(tuple(f for f in snf[k + 1][1] if f > 1))
    return HomologyResult(tuple(betti), tuple(torsion), d.truncated,
                          d.complex_dim < 0)


def euler_characteristic(c: SimplicialComplex, d: ChainComplexData) -> int:
    """Euler characteristic of c from its chain data.  Requires untruncated
    data.

    The alternating sum of the cell counts is chi of whatever the cells
    stand for.  On :func:`boundary_matrices`' data that is the pair
    (core, st v), and chi(core) = chi(core, st v) + chi(st v) with
    chi(st v) = 1, a cone; strong collapses keep the homotopy type, so
    that is chi(c).  On a complex's own faces (``relative_to`` None) the
    sum is chi(c) itself.  For a nonempty complex chi equals 1 plus the
    alternating sum of the reduced Betti numbers; the empty complex gives
    0 and is exempt.
    """
    if d.truncated:
        raise ValueError("Euler characteristic needs the full complex, "
                         "but the chain data is dimension-capped")
    if c.dimension != d.complex_dim:
        raise ValueError("chain data does not match the complex")
    cells = sum((-1) ** k * d.face_count(k) for k in range(d.complex_dim + 1))
    return cells + (d.relative_to is not None)


Connectivity = Union[int, AtLeast]


def homological_connectivity(h: HomologyResult) -> Connectivity:
    """One less than the smallest dimension with nonvanishing homology
    (torsion counts).  Returns an AtLeast sentinel when everything vanishes
    up to the computed dimension.  The empty complex gives -2, as its
    reduced homology in dimension -1 is Z."""
    if h.empty:
        return -2
    for k in range(h.max_dim + 1):
        if h.betti[k] != 0 or h.torsion[k]:
            return k - 1
    return AtLeast(h.max_dim)


def graph_homology(g, max_dim: Optional[int] = None,
                   face_cap: int = 500_000) -> tuple[HomologyResult, str]:
    """Homology of a graph's neighborhood complex, through its strong core
    relative to one vertex star.

    N[G] is reduced to ``strong_core()``, and the chains are those of the
    pair (core, st v) from :func:`boundary_matrices`, whose homology is the
    reduced homology of N[G]; ``face_cap`` caps their cells through
    dimension max_dim+1, and the star faces the face walk visits in each
    dimension.  With max_dim=None the answer covers every dimension
    of N[G]; ``truncated`` says whether max_dim lies below that dimension.
    Returns the result and the route, which is always "direct" (the
    complex itself, not the closed-set retract).
    """
    data = boundary_matrices(neighborhood_complex(g), max_dim, face_cap)
    return homology_integer(data), "direct"
