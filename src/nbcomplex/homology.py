"""Exact reduced simplicial homology over the integers and over GF(2).

Homology is computed on a complex's strong core (Barmak–Minian), which
has the complex's homotopy type: :func:`boundary_matrices` enumerates the
core's faces only.  Boundary columns carry the usual alternating signs,
plus an augmentation row in degree zero so that Betti numbers come out
reduced.  Integer ranks and torsion come from an exact Smith normal form in
arbitrary-precision integers (:func:`_smith_reduce`: unit pivots, then the
residue).

Integer homology reduces the boundary maps from the top dimension down and
clears as it goes: a k-face that was a unit pivot row of the map on
(k+1)-faces is never assembled as a column of the map on k-faces.  The unit
pivots form a square block of determinant +-1, so the cleared columns are
integer combinations of the kept ones (see :func:`homology_integer`); the
column lattice and every invariant factor stay the same, whether or not the
map above left a residue.  GF(2) Betti numbers are no separate
computation: by universal coefficients they follow from the integer Betti
numbers and torsion (:attr:`HomologyResult.field2`).  Bitset elimination
over GF(2) (:func:`betti_field2`) and the public :func:`smith_normal_form`
are no route of their own: they stay only as the tests' independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Collection, NamedTuple, Optional, Sequence, Union

from .complexes import SimplicialComplex, neighborhood_complex


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
    """Faces of a complex for dimensions 0..max_dim+1.

    ``faces[k]`` lists the dimension-k faces as ascending vertex bitmasks;
    :func:`_boundary_columns` assembles the boundary maps from them.
    ``complex_dim`` is the dimension of the complex the chains stand for.
    """

    max_dim: int
    complex_dim: int
    faces: tuple[tuple[int, ...], ...]

    @property
    def truncated(self) -> bool:
        return self.max_dim < self.complex_dim

    def face_count(self, k: int) -> int:
        return len(self.faces[k]) if 0 <= k < len(self.faces) else 0


def _boundary_columns(faces: tuple[tuple[int, ...], ...], k: int,
                      skip: Collection[int] = ()) -> list[dict]:
    """Columns of the boundary map on the k-face bitmasks ``faces[k]``,
    leaving out those whose index is in ``skip``.

    Column j maps row indices into ``faces[k-1]`` to entries.  The rows are
    the face less one set bit, dropped from the lowest up with alternating
    sign: dropping the i-th lowest bit, that is the i-th smallest vertex,
    carries (-1)**i.  For k = 0 each column is the augmentation entry 1.
    """
    if k == 0:
        return [{0: 1} for j in range(len(faces[0])) if j not in skip]
    index = {f: i for i, f in enumerate(faces[k - 1])}
    cols = []
    for j, f in enumerate(faces[k]):
        if j in skip:
            continue
        col = {}
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            col[index[f ^ low]] = sign
            sign = -sign
            rest ^= low
        cols.append(col)
    return cols


def boundary_matrices(c: SimplicialComplex, max_dim: Optional[int] = None,
                      face_cap: int = 500_000) -> ChainComplexData:
    """Chain data of ``c.strong_core()``, standing in for that of c.

    The core has the homotopy type of c, so its homology is c's.
    Dimensions 0..max_dim are covered (all of c's when max_dim is None),
    those above the core's dimension with empty layers, and
    ``complex_dim`` is c's own, so ``truncated`` means max_dim < dim c.
    Faces of dimensions 0..max_dim+1 come from
    ``SimplicialComplex.faces_up_to`` on the core, and ``face_cap`` caps
    their total over all those dimensions.
    """
    if max_dim is None:
        max_dim = max(c.dimension, 0)
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    return ChainComplexData(max_dim, c.dimension, c.strong_core().faces_up_to(
        max_dim + 1, cap=face_cap))


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
    marks the empty complex, whose reported groups all vanish.
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
    +-1, so odd); a map's rank over GF(2) is that of its columns.
    """
    ranks = [gf2_rank([sum(1 << r for r in col)
                       for col in _boundary_columns(d.faces, k)])
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
            _boundary_columns(d.faces, k, skip=cleared))
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
                          d.face_count(0) == 0)


def euler_characteristic(c: SimplicialComplex, d: ChainComplexData) -> int:
    """Euler characteristic of c, as the alternating sum of the face counts
    in its chain data.  Requires untruncated data.

    :func:`boundary_matrices` counts the faces of c's strong core; strong
    collapses keep the homotopy type, so the sum is chi(c) all the same.
    For a nonempty complex it equals 1 plus the alternating sum of the
    reduced Betti numbers; the empty complex gives 0 and is exempt.
    """
    if d.truncated:
        raise ValueError("Euler characteristic needs the full complex, "
                         "but the chain data is dimension-capped")
    if c.dimension != d.complex_dim:
        raise ValueError("chain data does not match the complex")
    return sum((-1) ** k * d.face_count(k) for k in range(d.complex_dim + 1))


Connectivity = Union[int, AtLeast]


def homological_connectivity(h: HomologyResult) -> Connectivity:
    """One less than the smallest dimension with nonvanishing homology
    (torsion counts).  Returns an AtLeast sentinel when everything vanishes
    up to the computed dimension."""
    for k in range(h.max_dim + 1):
        if h.betti[k] != 0 or h.torsion[k]:
            return k - 1
    return AtLeast(h.max_dim)


def graph_homology(g, max_dim: Optional[int] = None,
                   face_cap: int = 500_000) -> tuple[HomologyResult, str]:
    """Homology of a graph's neighborhood complex, through its strong core.

    N[G] is reduced to ``strong_core()`` before any chain is built, and
    ``face_cap`` caps the core's faces through dimension max_dim+1.  With
    max_dim=None the answer covers every dimension of N[G]; ``truncated``
    says whether max_dim lies below that dimension.  Returns the result and
    the route, which is always "direct" (the complex itself, not the
    closed-set retract).
    """
    data = boundary_matrices(neighborhood_complex(g), max_dim, face_cap)
    return homology_integer(data), "direct"
