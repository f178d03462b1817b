"""Neighborhood complexes, their strong cores, the common-neighbor closure,
and the closed-set poset with its order complex.

The complex N[G] has a face for every vertex subset with a common neighbor,
so its facets are exactly the inclusion-maximal neighborhoods.
``SimplicialComplex.strong_core`` deletes dominated vertices one at a time;
that keeps the homotopy type, so homology is computed on the core, which
is never larger and usually much smaller.  Closing the nonempty
neighborhoods under intersection yields the poset of closed sets; its order
complex (vertices are closed sets, faces are chains) is a deformation
retract of N[G], listed by ``lovasz_retract`` as its maximal chains for the
``retract`` command and kept as an independent cross-check of the
homology.  One bitmask builder with one
element cap closes the family for both ``closed_set_poset`` and
``closed_set_stats``; survey records need only the poset's size and
height, which the latter returns without the cover relation.  The face
poset itself is never materialized.
Neighborliness is a minimum hitting set of the non-neighborhoods, found by
branch-and-bound on the same bitmasks that settles its last two vertices
in closed form; its work cap counts the non-neighborhoods the search reads.

All of these start from the graph's adjacency bitmasks, and a complex
keeps its facets and enumerates its faces as bitmasks too.  One helper,
``_maximal``, keeps the inclusion-maximal sets wherever facets, strong-core
facets or lower covers are needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Iterable, Optional, Sequence

from .errors import ParseError, ResourceCapError
from .graphs import Graph, _bits


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex given by its facets, as vertex bitmasks.

    ``ground_set`` is the number of potential vertices (labels are
    0..ground_set-1; not all need appear).  ``masks`` holds the facets, bit
    v of a mask set iff v lies in the facet, pairwise inclusion-incomparable,
    each nonzero, in ascending order.  ``facets`` reads them as sorted vertex
    tuples.  The empty complex has no facets and dimension -1.
    """

    ground_set: int
    masks: tuple[int, ...]

    @classmethod
    def from_faces(cls, ground_set: int,
                   faces: Iterable[Sequence[int]]) -> "SimplicialComplex":
        """Build from arbitrary faces, keeping the inclusion-maximal ones."""
        if ground_set < 0:
            raise ValueError(f"ground set size must be nonnegative, got {ground_set}")
        masks = []
        for f in faces:
            m = 0
            for v in f:
                if not 0 <= v < ground_set:
                    raise ValueError(
                        f"face vertex {v} out of range for ground set {ground_set}")
                m |= 1 << v
            masks.append(m)
        return cls(ground_set, tuple(sorted(_maximal(masks))))

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The facets as sorted vertex tuples, in lexicographic order."""
        return tuple(sorted(tuple(_bits(m)) for m in self.masks))

    @property
    def dimension(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0) - 1

    def vertices(self) -> tuple[int, ...]:
        """Vertices that actually appear in some facet, sorted."""
        union = 0
        for m in self.masks:
            union |= m
        return tuple(_bits(union))

    def is_face(self, s: Iterable[int]) -> bool:
        """Whether s lies inside some facet.  The empty set is a face of any
        nonempty complex and not of the empty complex."""
        m = 0
        for v in s:
            if not 0 <= v < self.ground_set:
                return False
            m |= 1 << v
        return any(m & f == m for f in self.masks)

    def faces_up_to(self, top: int, cap: Optional[int] = None,
                    exclude: Sequence[int] = ()
                    ) -> tuple[tuple[int, ...], ...]:
        """Faces of each dimension 0..top as bitmasks, one ascending (colex)
        tuple per dimension, without those inside any mask of ``exclude``.

        This is the one place faces are enumerated: one depth-first walk,
        in lexicographic order, over the vertices of the kept facets (those
        inside no excluded mask), each carrying a bitset of the kept facets
        and one of the excluded masks that hold it (Zaki's Eclat).  A face
        grows by each later vertex that a kept facet holding it also holds,
        so each face of a kept facet is visited once, and is kept when no
        excluded mask holds it.  With ``cap`` set, raises
        ``ResourceCapError`` at the face that takes the kept faces over all
        dimensions, or the left-out faces of its dimension, past the cap,
        so a complex nearly all left out is still abandoned early.
        """
        kept = [m for m in self.masks if not any(m & g == m for g in exclude)]
        holds: dict[int, list[int]] = {}  # vertex -> [facets, masks] bitsets
        for i, m in enumerate(kept):
            for v in _bits(m):
                holds.setdefault(v, [0, 0])[0] |= 1 << i
        for j, g in enumerate(exclude):
            for v in _bits(g):
                if v in holds:
                    holds[v][1] |= 1 << j
        layers: list[list[int]] = [[] for _ in range(top + 1)]
        left_out = [0] * (top + 1)
        total = 0
        # an entry holds the faces grown from ``base`` by the items of
        # ``grown`` from ``start`` on: a vertex bit, and the kept facets and
        # excluded masks holding base plus that vertex
        roots = [(1 << v, f, e) for v, (f, e) in sorted(holds.items())]
        stack = [(0, 0, roots, 0)] if top >= 0 else []
        while stack:
            base, k, grown, start = stack.pop()
            # only items before the last, below dimension top, can grow
            last = len(grown) - 1 if k < top else 0
            for i in range(start, len(grown)):
                bit, facets, masks = grown[i]
                face = base | bit
                if masks:
                    left_out[k] += 1
                    what, count = "left-out faces", left_out[k]
                else:
                    layers[k].append(face)
                    total += 1
                    what, count = "face enumeration", total
                if cap is not None and count > cap:
                    raise ResourceCapError(
                        f"{what} exceeded cap {cap} in dimension {k}",
                        partial_count=count)
                if i < last:
                    later = [(b, facets & f, masks & e)
                             for b, f, e in grown[i + 1:] if facets & f]
                    if later:  # walk the faces through this one first
                        stack.append((base, k, grown, i + 1))
                        stack.append((face, k + 1, later, 0))
                        break
        return tuple(tuple(sorted(layer)) for layer in layers)

    def k_faces(self, k: int) -> list[tuple[int, ...]]:
        """All faces of dimension k (size k+1) as vertex tuples, sorted."""
        if k < 0:
            raise ValueError(f"face dimension must be nonnegative, got {k}")
        return sorted(tuple(_bits(m)) for m in self.faces_up_to(k)[k])

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_dim); empty tuple for the empty complex."""
        return tuple(len(layer) for layer in self.faces_up_to(self.dimension))

    def strong_core(self) -> "SimplicialComplex":
        """The complex left once no vertex is dominated.

        A vertex v is dominated when every facet holding v also holds some
        other vertex w.  Deleting v (each facet F holding v becomes F - {v},
        and only the inclusion-maximal facets are kept) is a strong
        collapse, which keeps the homotopy type and so the integer homology,
        torsion included (Barmak-Minian, "Strong homotopy types, nerves and
        collapses", 2012).  Vertices are scanned in ascending label order,
        pass after pass, until a pass deletes nothing, so the result is
        deterministic.  Labels and ``ground_set`` are kept; the core of a
        nonempty complex is nonempty, because a deleted vertex always
        leaves its dominating vertex behind.
        """
        facets = list(self.masks)
        deleted = False
        changed = True
        while changed:
            changed = False
            for v in range(self.ground_set):
                bit = 1 << v
                meet = -1
                for f in facets:
                    if f & bit:
                        meet &= f
                if meet == -1 or meet == bit:
                    continue  # v is absent, or no other vertex dominates it
                # a facet through v, less v, can only fall inside a facet
                # holding all of meet; the other facets stay maximal
                near = meet ^ bit
                stay = [f for f in facets if not f & bit and f & near != near]
                facets = stay + _maximal([f & ~bit for f in facets
                                          if f & bit or f & near == near])
                changed = deleted = True
        if not deleted:
            return self
        return SimplicialComplex(self.ground_set, tuple(sorted(facets)))

    def component_count(self) -> int:
        """Connected components of the underlying 1-skeleton."""
        return _components(self.masks)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal sets among the nonzero bitmasks ``masks``, each
    once, largest first."""
    kept: list[int] = []
    for _, same_size in groupby(sorted(set(masks), key=int.bit_count,
                                       reverse=True), int.bit_count):
        # only a larger set can hold m, and the list is built before kept
        # grows, so m meets just the sets kept from larger sizes
        kept += [m for m in same_size
                 if m and not any(m & k == m for k in kept)]
    return kept


def _components(masks: Iterable[int]) -> int:
    """Classes of the nonzero bitmasks ``masks`` under chains of overlaps:
    each is merged with every component mask it meets."""
    components: list[int] = []
    for merged in masks:
        if merged:
            apart = []
            for c in components:
                if c & merged:
                    merged |= c
                else:
                    apart.append(c)
            apart.append(merged)
            components = apart
    return len(components)


def facet_list_text(c: SimplicialComplex) -> str:
    """Render a complex as a ``dim <d>`` header plus one facet per line."""
    lines = [f"dim {c.dimension}"]
    lines.extend(" ".join(str(v) for v in f) for f in c.facets)
    return "\n".join(lines) + "\n"


def parse_facet_list(text: str) -> SimplicialComplex:
    """Parse the facet-list format.  The ground set is taken to be one more
    than the largest vertex mentioned (labels outside facets are lost)."""
    dim: Optional[int] = None
    facets: list[tuple[int, ...]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if dim is None:
            if len(tokens) != 2 or tokens[0] != "dim":
                raise ParseError(f"expected header 'dim <d>', got {line!r}", lineno)
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad dimension {tokens[1]!r}", lineno) from None
            continue
        try:
            face = tuple(int(t) for t in tokens)
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
        if any(v < 0 for v in face):
            raise ParseError("negative vertex label", lineno)
        if len(set(face)) != len(face):
            raise ParseError(f"repeated vertex in facet {line!r}", lineno)
        facets.append(tuple(sorted(face)))
        top = max(top, max(face))
    if dim is None:
        raise ParseError("missing 'dim <d>' header")
    c = SimplicialComplex.from_faces(top + 1, facets)
    if c.dimension != dim:
        raise ParseError(
            f"declared dim {dim} but facets give dimension {c.dimension}")
    return c


# ---------------------------------------------------------------------------
# the complex and the closure operator


def neighborhood_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are vertex sets with a common neighbor.

    Facets are the inclusion-maximal neighborhoods, so the dimension is
    max degree - 1.  Graphs with no edges give the empty complex.
    """
    return SimplicialComplex(g.n, tuple(sorted(_maximal(g.masks))))


def neighborhood_complex_components(g: Graph) -> int:
    """``neighborhood_complex(g).component_count()`` without building the
    complex.

    Each neighborhood is a face, and every face lies in a neighborhood, so
    the components are the classes of vertices linked by chains of
    overlapping neighborhoods.
    """
    return _components(g.masks)


def common_neighbors(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to everything in s; all of V for s empty.

    This is the order-reversing operator whose nonempty values are exactly
    the faces of the neighborhood complex.
    """
    common = (1 << g.n) - 1
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        common &= g.masks[v]
    return frozenset(_bits(common))


def closure(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Common neighbors applied twice: the least closed set containing s.

    Defined only on faces (nonempty s must have a common neighbor) and on
    the empty set.  Extensive and idempotent.
    """
    ss = frozenset(s)
    first = common_neighbors(g, ss)
    if ss and not first:
        raise ValueError(f"{sorted(ss)} has no common neighbor, closure undefined")
    return common_neighbors(g, first)


def neighborliness(g: Graph, work_cap: int = 5_000_000) -> int:
    """Largest i such that every i-subset of vertices has a common neighbor.

    0 when some vertex is isolated.  The whole vertex set never has a
    common neighbor, so the value is at most n - 1.

    A vertex set S has no common neighbor exactly when it meets every
    non-neighborhood V - N(w), so the value is h - 1 for h the size of a
    smallest set hitting all of them.  That is found by a branch-and-bound
    on bitmasks, not by listing subsets (see ``_min_hitting_set``).
    ``work_cap`` bounds the search's own work, counted in non-neighborhoods
    read; once the charge passes the cap ``ResourceCapError`` is raised,
    its ``best`` a value the neighborliness is proved to reach, from two
    lower bounds on h: the count of pairwise disjoint non-neighborhoods,
    and the fewest vertices whose counts of non-neighborhoods hit could
    add up to all of them.
    """
    n = g.n
    if n < 1:
        raise ValueError("neighborliness needs at least one vertex")
    full = (1 << n) - 1
    # a set meets every non-neighborhood exactly when it meets the minimal
    # ones, so the distinct ones are hit as they are, smallest first, less
    # those holding the smallest, which a set meeting it meets too
    first, *rest = sorted({full & ~m for m in g.masks}, key=int.bit_count)
    targets = [first, *(m for m in rest if first & ~m)]
    return _min_hitting_set(targets, n, work_cap) - 1


def _disjoint_count(masks: Iterable[int], stop: int) -> tuple[int, int]:
    """Greedy count of pairwise disjoint masks, a lower bound on the size of
    any set hitting them all, and the vertices every mask holds, in one
    pass that stops once the count passes ``stop``."""
    used = count = 0
    common = -1
    for m in masks:
        common &= m
        if not m & used:
            used |= m
            count += 1
            if count > stop:
                break
    return count, common


def _meet(masks: list[int], bit: int) -> tuple[int, int]:
    """The vertices shared by every mask that misses ``bit``, and the
    number of masks read: the pass stops at the first mask that leaves none
    shared."""
    common = -1
    for read, m in enumerate(masks, 1):
        if not m & bit:
            common &= m
            if not common:
                return 0, read
    return common, len(masks)


def _counting_bound(targets: list[int]) -> int:
    """The fewest k vertices whose k largest counts of targets hit add up to
    at least the number of targets, a lower bound on any hitting set."""
    hits = sorted(Counter(v for m in targets for v in _bits(m)).values(),
                  reverse=True)
    return next(k for k, covered in enumerate(accumulate(hits), 1)
                if covered >= len(targets))


def _min_hitting_set(targets: list[int], n: int, work_cap: int) -> int:
    """Size of a smallest set of vertices 0..n-1 meeting every target, for
    the non-neighborhoods of ``neighborliness``.

    Branches on the vertices of the smallest unmet target, one at a time:
    a set either holds the vertex, or the vertex is struck from every
    target and the next smallest target is taken, so no set is visited
    twice.  Prunes with the count of pairwise disjoint unmet targets.  The
    pass that counts them also finds the vertices they all hold, so a node
    one vertex settles ends there, and a node where a better set may add
    at most two vertices is settled in closed form, without branching: a
    pair holds a vertex a of the smallest unmet target and a vertex lying
    in every target that misses a.  The search runs on a stack, not by
    recursion, as it may go n deep.

    Each node visited is charged its unmet targets, and each pair probe
    the targets it reads.  The cap is checked after every charge,
    so no node runs past it.  Once the charge passes ``work_cap``, raises
    ``ResourceCapError`` with ``best`` one less than the larger of two
    bounds at the root, which no hitting set is smaller than: the disjoint
    count and ``_counting_bound``.  They are computed only then.
    """
    best = n + 1
    used = 0
    # depth first, the sets holding a vertex before those without it
    stack = [(0, targets)]
    while stack:
        chosen, unmet = stack.pop()
        used += len(unmet)
        if used > work_cap:
            raise _hitting_cap(targets, n, work_cap)
        room = best - 1 - chosen  # vertices a better set may still add
        lower, common = _disjoint_count(unmet, room)
        if lower > room:
            continue
        if common:  # one vertex meets every unmet target
            best = chosen + 1
            continue
        if room == 2:
            # a pair holds a vertex of the smallest target and one shared
            # by every target missing it
            for v in _bits(unmet[0]):
                common, read = _meet(unmet, 1 << v)
                used += read
                if used > work_cap:
                    raise _hitting_cap(targets, n, work_cap)
                if common:
                    best = chosen + 2
                    break
        if room <= 2:
            continue
        bit = unmet[0] & -unmet[0]
        rest = [m for m in unmet if not m & bit]
        # the sets without this vertex: strike it from every target
        unmet = sorted((m & ~bit for m in unmet), key=int.bit_count)
        if unmet[0]:
            stack.append((chosen, unmet))
        stack.append((chosen + 1, rest))
    return best


def _hitting_cap(targets: list[int], n: int,
                 work_cap: int) -> ResourceCapError:
    bound = max(_disjoint_count(targets, n)[0], _counting_bound(targets))
    return ResourceCapError(f"neighborliness exceeded work cap {work_cap}",
                            best=bound - 1)


# ---------------------------------------------------------------------------
# closed-set poset and its order complex


@dataclass(frozen=True)
class ClosedSetPoset:
    """The nonempty closed vertex sets of a graph, ordered by inclusion.

    ``elements`` are sorted by (size, lexicographic); ``covers`` lists the
    Hasse relation as (lower index, upper index) pairs; ``height`` is the
    longest chain length minus one (-1 for the empty poset).
    """

    elements: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, int], ...]
    height: int

    def element_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(e) for e in self.elements)

    def to_json_dict(self) -> dict:
        return {
            "elements": [list(e) for e in self.elements],
            "covers": [list(c) for c in self.covers],
            "height": self.height,
        }


def _closed_sets(g: Graph, element_cap: int) -> tuple[set[int], set[int]]:
    """The nonempty neighborhoods closed under intersection, and the
    distinct nonempty neighborhoods among them, as int bitmasks.

    The family is closed one neighborhood at a time: once a family F is
    closed, adding N(v) adds N(v) and every nonempty N(v) & f for f in F.
    The family counts against ``element_cap`` once it holds a set that is
    no neighborhood.  A step at most doubles it, so it never holds more
    than 2 * max(element_cap, n) + 1 sets.
    """
    masks = g.masks
    neighborhoods = set(masks)
    neighborhoods.discard(0)
    family: set[int] = set()
    for a in masks:
        if not a or a in family:
            continue
        family |= {a & f for f in family}
        family.discard(0)
        family.add(a)
        size = len(family) + len(neighborhoods - family)
        if size > element_cap and not family <= neighborhoods:
            raise ResourceCapError(
                f"closed-set family exceeded element cap {element_cap}",
                partial_count=size)
    return family, neighborhoods


def _height(family: set[int], neighborhoods: set[int]) -> int:
    """Longest chain length minus one (-1 for an empty family).

    A closed set s strictly inside t is an intersection of neighborhoods,
    one of which, N(v), misses part of t; so s lies inside t & N(v), itself
    a closed set strictly inside t.  Heights grow along inclusion, so a DP
    in popcount order over the candidates t & N(v) is enough.
    """
    heights: dict[int, int] = {}
    for t in sorted(family, key=int.bit_count):
        heights[t] = 1 + max((heights[t & a] for a in neighborhoods
                              if t & a and t & a != t), default=-1)
    return max(heights.values(), default=-1)


def closed_set_poset(g: Graph, element_cap: int = 20_000) -> ClosedSetPoset:
    """The nonempty neighborhoods closed under intersection, ordered by
    inclusion.

    The family is exactly the image of the double common-neighbor closure
    on nonempty faces, so it carries the homotopy type of the neighborhood
    complex without ever enumerating faces.  By the argument in
    ``_height``, the lower covers of an element t are the inclusion-maximal
    sets among the nonempty t & N(v) other than t.
    """
    family, neighborhoods = _closed_sets(g, element_cap)
    members = {t: tuple(_bits(t)) for t in family}
    order = sorted(family, key=lambda t: (t.bit_count(), members[t]))
    index = {t: i for i, t in enumerate(order)}
    covers: list[tuple[int, int]] = []
    for j, t in enumerate(order):
        covers += [(index[s], j) for s in
                   _maximal(t & a for a in neighborhoods if t & a != t)]
    covers.sort()
    return ClosedSetPoset(tuple(members[t] for t in order), tuple(covers),
                          _height(family, neighborhoods))


def closed_set_stats(g: Graph, element_cap: int = 20_000) -> tuple[int, int]:
    """``(len(P.elements), P.height)`` for ``P = closed_set_poset(g)``,
    ``(0, -1)`` for an edgeless graph, without the cover relation; the same
    graphs hit the element cap with the same message.
    """
    family, neighborhoods = _closed_sets(g, element_cap)
    return len(family), _height(family, neighborhoods)


def lovasz_retract(p: ClosedSetPoset, chain_cap: int = 500_000
                   ) -> tuple[tuple[int, ...], ...]:
    """Maximal chains of the closed-set poset, as ascending tuples of
    element indices, sorted: the facets of its order complex.

    That complex has the poset height as dimension and the homology of the
    source neighborhood complex.  Chains are returned because a complex's
    masks would take one bit per poset element; wrap them with
    ``SimplicialComplex.from_faces(len(p.elements), chains)`` when needed.
    """
    m = len(p.elements)
    uppers: list[list[int]] = [[] for _ in range(m)]
    has_lower = [False] * m
    for i, j in p.covers:
        uppers[i].append(j)
        has_lower[j] = True
    for ups in uppers:
        ups.sort()

    # depth-first walk up the Hasse diagram, one partial chain per stack
    # entry; a chain that reaches a maximal element is a maximal chain
    chains: list[tuple[int, ...]] = []
    stack = [(v,) for v in range(m) if not has_lower[v]]
    while stack:
        path = stack.pop()
        ups = uppers[path[-1]]
        if ups:
            stack.extend([path + (w,) for w in ups])
        else:
            if len(chains) >= chain_cap:
                raise ResourceCapError(
                    f"maximal chain enumeration exceeded cap {chain_cap}",
                    partial_count=len(chains))
            chains.append(path)
    # element indices ascend along any chain (sorted by size first), so the
    # tuples are already sorted; distinct maximal chains are incomparable
    return tuple(sorted(chains))
