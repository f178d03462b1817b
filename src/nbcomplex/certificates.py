"""Sphere certificates from maximal cliques, and chromatic comparisons.

A maximal clique X of order m spans an (m-2)-sphere inside the neighborhood
complex.  If for some clique member u there is no pair (u* outside X, v)
with v adjacent to all of (X minus u) plus u*, then the complex retracts
onto that sphere and reduced homology in dimension m-2 is nonzero.  When
every member is obstructed and the obstructing v-vertices all lie outside
X, those vertices extend X to a partnered-clique subgraph: the two outcomes
of the search are both certified, never guessed.

The obstruction search runs on adjacency bitmasks.  With C the common
neighbors of X minus u (one prefix and one suffix pass of ANDs give C for
every member u), the first u* is the lowest bit of the union of N(v) over
v in C, outside X, and its v is the lowest bit of C & N(u*): O(|X| + |C|)
word operations per index, and the same lexicographically first witness
as a scan over all pairs.  :func:`obstruction_test` and
:func:`obstructed_clique_extension` run that search on every index they
are asked about.  A certificate needs only to know whether an index is
obstructed, and u itself lies in C: when N(u) reaches outside X, v = u
with u* any such neighbor obstructs the index.  So a certificate on X needs
a member u with N(u) inside X, and only such members get the full search.

Such a u is simplicial, and X is its closed neighborhood N[u].  Proof: X is
a clique containing u, so X lies in N[u], and N(u) lies in X, so X = N[u].
Conversely N[u] of a simplicial u is a maximal clique: a vertex adjacent to
all of N[u] is a neighbor of u, so it is already in N[u].  The only
maximal cliques that can carry a certificate are therefore the distinct
closed neighborhoods that are cliques, which one pass over the vertices
lists; :func:`find_sphere_certificates` searches those and never lists the
maximal cliques.  Every certificate is still rechecked by the independent
plain-loop rescan ``_revalidate``.

Exact coloring runs on the same masks: a color class is a vertex bitmask,
and a vertex's saturation is the number of classes its mask meets.
:func:`chromatic_number_exact` pre-colors the lexicographically first
maximum clique and runs DSATUR (Brélaz, CACM 1979) up to a first-fit bound.
:func:`bound_comparison` takes the clique number and that seed from one
:func:`~nbcomplex.graphs.maximum_clique` call, and :class:`BoundComparison`
spells its record once, for JSON and for CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Optional, Sequence

from .complexes import neighborliness
from .errors import ResourceCapError, capped
from .graphs import (Graph, SubgraphWitness, _bits, _require_clique_size,
                     maximum_clique, witness_is_valid)
from .homology import AtLeast, Connectivity, graph_homology, \
    homological_connectivity


@dataclass(frozen=True)
class ObstructionWitness:
    """A pair blocking one candidate retraction index.

    ``v`` is adjacent to every clique vertex except the one at ``index``
    and also to ``u_star``, which lies outside the clique.  ``v`` may equal
    the excluded clique vertex itself; that degenerate witness still blocks
    the retraction but cannot extend the clique to a partnered-clique
    subgraph.
    """

    u_star: int
    v: int
    index: int


@dataclass(frozen=True)
class SphereCertificate:
    """A maximal clique whose index-th member admits no obstruction.

    Guarantees reduced homology of the neighborhood complex is nonzero in
    dimension ``sphere_dim`` = len(clique) - 2.  ``validated`` is set after
    the independent rescan in :func:`find_sphere_certificates`.
    """

    clique: tuple[int, ...]
    retract_index: int
    sphere_dim: int
    validated: bool = False

    def to_json_dict(self) -> dict:
        return {
            "clique": list(self.clique),
            "retract_index": self.retract_index,
            "sphere_dim": self.sphere_dim,
            "validated": self.validated,
        }


def _require_maximal_clique(g: Graph, clique: Sequence[int]) -> tuple[int, ...]:
    x = tuple(sorted(clique))
    if len(set(x)) != len(x) or not x:
        raise ValueError(f"clique must be a nonempty set of vertices, got {clique}")
    for v in x:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    for u, v in combinations(x, 2):
        if not g.has_edge(u, v):
            raise ValueError(f"{list(x)} is not a clique: missing edge ({u}, {v})")
    ext = -1
    for v in x:
        ext &= g.masks[v]
    if ext:
        raise ValueError(f"{list(x)} is not maximal: vertex "
                         f"{(ext & -ext).bit_length() - 1} extends it")
    return x


def _clique_masks(adj: Sequence[int],
                  x: Sequence[int]) -> tuple[int, list[int]]:
    """The clique ``x`` as a bitmask, and per index i the bitmask of common
    neighbors of every member but the i-th (all vertices when that leaves
    none)."""
    acc = (1 << len(adj)) - 1
    inside = 0
    commons = []
    for u in x:  # prefixes: members before i
        commons.append(acc)
        acc &= adj[u]
        inside |= 1 << u
    acc = (1 << len(adj)) - 1
    for i in range(len(x) - 1, -1, -1):  # and suffixes: members after i
        commons[i] &= acc
        acc &= adj[x[i]]
    return inside, commons


def _search_obstruction(adj: Sequence[int], common: int,
                        inside: int) -> Optional[tuple[int, int]]:
    """First (u_star, v) in lexicographic order with u_star outside the
    clique ``inside`` and v in ``common`` adjacent to u_star, or None.

    ``adj`` holds the graph's adjacency bitmasks; ``common`` is the common
    neighborhood of the clique minus one member (from ``_clique_masks``),
    less any vertices v may not be drawn from.
    """
    reach = 0
    rest = common
    while rest:
        low = rest & -rest
        reach |= adj[low.bit_length() - 1]
        rest ^= low
    reach &= ~inside
    if not reach:
        return None
    u_star = (reach & -reach).bit_length() - 1
    blockers = common & adj[u_star]
    return u_star, (blockers & -blockers).bit_length() - 1


def obstruction_test(g: Graph, clique: Sequence[int],
                     index: int) -> Optional[ObstructionWitness]:
    """First obstruction to retracting onto the clique minus its index-th
    member, scanning (u_star, v) in lexicographic order; None if unblocked.

    The clique must be maximal (checked).  None means the neighborhood
    complex retracts onto the sphere spanned by the clique.
    """
    x = _require_maximal_clique(g, clique)
    if not 0 <= index < len(x):
        raise ValueError(f"index {index} out of range for clique of size {len(x)}")
    adj = g.masks
    inside, commons = _clique_masks(adj, x)
    found = _search_obstruction(adj, commons[index], inside)
    return None if found is None else ObstructionWitness(*found, index)


def _first_certificate(adj: Sequence[int],
                       x: tuple[int, ...]) -> Optional[SphereCertificate]:
    """Certificate from the first unobstructed index of the sorted maximal
    clique ``x``; None for a single vertex or a fully obstructed clique."""
    if len(x) < 2:
        return None
    inside = 0
    for u in x:
        inside |= 1 << u
    commons = None
    for i, u in enumerate(x):
        # u is a common neighbor of x minus u, so a neighbor of u outside
        # x obstructs index i (v = u); only N(u) inside x needs the search
        if adj[u] & ~inside:
            continue
        if commons is None:
            commons = _clique_masks(adj, x)[1]
        if _search_obstruction(adj, commons[i], inside) is None:
            return SphereCertificate(x, i, len(x) - 2)
    return None


def sphere_certificate(g: Graph,
                       clique: Sequence[int]) -> Optional[SphereCertificate]:
    """Certificate from the first unobstructed index of a maximal clique.

    Cliques of size one are never certified (there is no sphere to name).
    """
    x = _require_maximal_clique(g, clique)
    return _first_certificate(g.masks, x)


def _revalidate(g: Graph, cert: SphereCertificate) -> bool:
    """Naive rescan of a certificate: plain loops over raw adjacency."""
    x = cert.clique
    if len(x) != len(set(x)) or len(x) < 2:
        return False
    for u in x:
        for v in x:
            if u < v and not g.has_edge(u, v):
                return False
    for w in range(g.n):
        if w not in x and all(g.has_edge(w, u) for u in x):
            return False  # not maximal
    if cert.sphere_dim != len(x) - 2:
        return False
    kept = [u for i, u in enumerate(x) if i != cert.retract_index]
    for u_star in range(g.n):
        if u_star in x:
            continue
        for v in range(g.n):
            if g.has_edge(v, u_star) and all(g.has_edge(v, u) for u in kept):
                return False  # obstruction exists after all
    return True


def _simplicial_cliques(g: Graph,
                        vertex_cap: int) -> list[tuple[int, ...]]:
    """The distinct closed neighborhoods N[u] that are cliques, sorted: the
    maximal cliques that can carry a certificate (see the module notes)."""
    _require_clique_size(g, vertex_cap)
    adj = g.masks
    found = set()
    for u, m in enumerate(adj):
        x = m | 1 << u
        # N[u] is a clique iff each neighbor w has all of N[u] but w in
        # N(w); the scan stops at the first neighbor that misses, which
        # for most vertices is the first one
        rest = m
        while rest:
            low = rest & -rest
            if x & ~adj[low.bit_length() - 1] != low:
                break
            rest ^= low
        else:
            found.add(x)
    return sorted(tuple(_bits(x)) for x in found)


def find_sphere_certificates(g: Graph,
                             vertex_cap: int = 64) -> list[SphereCertificate]:
    """All certificates over maximal cliques of size at least two.

    Sorted by sphere dimension descending, then by clique.  Every returned
    certificate has been re-validated by the independent naive scanner.
    """
    return _certificates_from_cliques(g, _simplicial_cliques(g, vertex_cap))


def _certificates_from_cliques(g: Graph, cliques: Sequence[tuple[int, ...]]
                               ) -> list[SphereCertificate]:
    """The certificates on the given maximal cliques of ``g`` (sorted
    tuples), which are not checked for maximality again."""
    adj = g.masks
    certs = []
    for clique in cliques:
        cert = _first_certificate(adj, clique)
        if cert is not None:
            if not _revalidate(g, cert):
                raise RuntimeError(
                    f"certificate {cert} failed independent revalidation")
            certs.append(SphereCertificate(cert.clique, cert.retract_index,
                                           cert.sphere_dim, validated=True))
    certs.sort(key=lambda c: (-c.sphere_dim, c.clique))
    return certs


def obstructed_clique_extension(g: Graph,
                                clique: Sequence[int]) -> Optional[SubgraphWitness]:
    """Partnered-clique witness built from a fully obstructed maximal clique.

    For each index this searches for an obstruction whose blocking vertex v
    lies outside the clique (v inside the clique blocks the retraction but
    contributes no partner).  Returns the witness when every index yields
    one, None otherwise.  The witness is revalidated before being returned.
    """
    x = _require_maximal_clique(g, clique)
    adj = g.masks
    inside, commons = _clique_masks(adj, x)
    partners = []
    for common in commons:
        found = _search_obstruction(adj, common & ~inside, inside)
        if found is None:
            return None
        partners.append(found[1])
    witness = SubgraphWitness("xn", (x, tuple(partners)))
    if not witness_is_valid(g, witness):
        raise RuntimeError(
            f"extension witness {witness} failed validation; "
            "obstruction bookkeeping is inconsistent")
    return witness


# ---------------------------------------------------------------------------
# chromatic numbers and the comparison record


def neighborliness_chromatic_bound(g: Graph, work_cap: int = 5_000_000) -> int:
    """Lower bound on the chromatic number from neighborliness.

    An i-neighborly neighborhood complex forces at least i + 1 colors.
    """
    if g.n < 1:
        raise ValueError("chromatic bound needs at least one vertex")
    try:
        return neighborliness(g, work_cap=work_cap) + 1
    except ResourceCapError as err:
        raise ResourceCapError(
            str(err),
            best=None if err.best is None else err.best + 1) from None


def _greedy_bound(adj: Sequence[int]) -> int:
    """Colors of a first-fit coloring of the graph with adjacency bitmasks
    ``adj``: vertices by degree, largest first and smallest index on ties,
    each into the first color class holding none of its neighbors."""
    classes: list[int] = []
    for v in sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v)):
        for i, cls in enumerate(classes):
            if not cls & adj[v]:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def chromatic_number_exact(g: Graph, vertex_cap: int = 20) -> int:
    """Exact chromatic number by branch and bound (DSATUR).

    Seeded with the clique number below and a greedy coloring above; the
    lexicographically first maximum clique is pre-colored to break
    symmetry; branching picks the uncolored vertex with the most distinct
    neighbor colors, smallest index on ties, and tries colors in numeric
    order.
    """
    if g.n > vertex_cap:
        raise ResourceCapError(
            f"exact coloring capped at {vertex_cap} vertices (got {g.n}); "
            f"raise vertex_cap to override")
    return _chromatic_from_clique(g.masks, maximum_clique(g))


def _chromatic_from_clique(adj: Sequence[int],
                           seed_clique: tuple[int, ...]) -> int:
    """:func:`chromatic_number_exact` on the adjacency bitmasks ``adj``,
    given the graph's lexicographically first maximum clique, past its
    vertex cap."""
    ub = _greedy_bound(adj)
    for k in range(len(seed_clique), ub):
        classes = [1 << v for v in seed_clique]
        if _colorable(adj, classes, (1 << len(adj)) - 1 - sum(classes), k):
            return k
    return ub


def _colorable(adj: Sequence[int], classes: list[int], uncolored: int,
               k: int) -> bool:
    """Whether the partial coloring ``classes`` (one vertex bitmask per
    color, restored when False) extends to the ``uncolored`` vertices with
    at most k colors.  A vertex's saturation is the number of classes its
    mask meets; ``max`` keeps the smallest index on ties."""
    if not uncolored:
        return True
    v = max(_bits(uncolored),
            key=lambda u: sum(1 for cls in classes if cls & adj[u]))
    bit = 1 << v
    uncolored ^= bit
    for c, cls in enumerate(classes):
        if not cls & adj[v]:
            classes[c] = cls | bit
            if _colorable(adj, classes, uncolored, k):
                return True
            classes[c] = cls
    if len(classes) < k:
        classes.append(bit)
        if _colorable(adj, classes, uncolored, k):
            return True
        classes.pop()
    return False


@dataclass(frozen=True)
class BoundComparison:
    """Side-by-side chromatic lower bounds for one graph.

    ``hom_connectivity`` is the homological connectivity of the
    neighborhood complex; it is recorded as a heuristic observation only,
    never folded into the asserted bounds.  Fields are None when a work cap
    stopped them; ``missing`` names those fields.
    """

    n: int
    edges: int
    chromatic_number: Optional[int]
    clique_number: Optional[int]
    neighborliness_bound: Optional[int]
    hom_connectivity: Optional[Connectivity]
    best_certificate_dim: Optional[int]
    missing: tuple[str, ...]

    def to_json_dict(self) -> dict:
        """The fields in order, an AtLeast connectivity as its ">=k" text
        and ``missing`` as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.hom_connectivity, AtLeast):
            out["hom_connectivity"] = str(self.hom_connectivity)
        out["missing"] = list(self.missing)
        return out


def bound_comparison(g: Graph, coloring_cap: int = 20) -> BoundComparison:
    """Compute the comparison record, asserting the provable inequalities
    (chromatic number at least clique number and at least the
    neighborliness bound) before returning.

    One maximum-clique search gives the clique number and the coloring's
    seed clique; a capped search leaves both missing.  The coloring runs
    only when n <= ``coloring_cap``.
    """
    if g.n < 1:
        raise ValueError("comparison needs at least one vertex")
    failures: list = []
    clique = capped(failures, "clique_number", lambda: maximum_clique(g))
    chi = omega = None
    if clique is not None:
        omega = len(clique)
        if g.n <= coloring_cap:
            chi = _chromatic_from_clique(g.masks, clique)
    nbound = capped(failures, "neighborliness_bound",
                    lambda: neighborliness_chromatic_bound(g))
    conn = capped(failures, "hom_connectivity",
                  lambda: homological_connectivity(graph_homology(g)[0]))
    best_dim = capped(failures, "best_certificate_dim", lambda: max(
        (c.sphere_dim for c in find_sphere_certificates(g)), default=None))
    missing = ["chromatic_number"] if chi is None else []
    missing.extend(name for name, _ in failures)

    if chi is not None and chi < omega:
        raise RuntimeError(f"coloring bug: chi={chi} below clique number {omega}")
    if chi is not None and nbound is not None and chi < nbound:
        raise RuntimeError(
            f"bound violation: chi={chi} below neighborliness bound {nbound}")
    return BoundComparison(g.n, g.edge_count, chi, omega, nbound, conn,
                           best_dim, tuple(missing))


def comparisons_csv(records: Sequence[BoundComparison]) -> str:
    """Render comparison records as CSV with a fixed header: the fields of
    :meth:`BoundComparison.to_json_dict`, None empty and ``missing`` joined
    by semicolons."""
    lines = [",".join(f.name for f in fields(BoundComparison))]
    for r in records:
        row = r.to_json_dict()
        row["missing"] = ";".join(r.missing)
        lines.append(",".join("" if v is None else str(v)
                              for v in row.values()))
    return "\n".join(lines) + "\n"
