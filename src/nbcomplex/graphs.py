"""Simple undirected graphs: construction, named families, seeded random
sampling, a plain text edge-list format, cliques, and exact subgraph
detectors.

Vertices are always 0..n-1.  Graphs are immutable, and their one adjacency
encoding is an int bitmask per vertex: bit w of ``masks[v]`` is set iff vw
is an edge.  Every layer works on those masks, one int AND per
candidate-set update.  :func:`maximum_clique` finds the clique number
without listing cliques: a Carraghan–Pardalos depth-first search that takes
candidates in ascending order and drops a branch once its clique plus all
its candidates cannot beat the best clique found.  :func:`maximal_cliques`
lists every maximal clique (Bron–Kerbosch with the Tomita pivot); no
runtime route needs that list, and the tests use it as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParseError, ResourceCapError
from .seeds import (LANE_BITS, lane_ones, mix64, splitmix64_lanes,
                    unit_threshold)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``masks[v]`` is the neighbor set of v as an int bitmask.  Loops and
    multi-edges cannot be represented; symmetry holds by construction in
    :meth:`from_edges` and :func:`gnp_sample`.
    """

    n: int
    masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    def neighbors(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return frozenset(_bits(self.masks[v]))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge query ({u}, {v}) out of range for n={self.n}")
        return bool(self.masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.masks[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, m in enumerate(self.masks):
            for v in _bits(m & -1 << u + 1):  # the neighbors above u
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = frontier = 1
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= self.masks[v]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


# ---------------------------------------------------------------------------
# edge-list text format


def serialize_edge_list(g: Graph) -> str:
    """Render a graph in the plain edge-list format.

    First line is ``n <count>``; each following line is one edge ``u v``
    with u < v, sorted lexicographically.  Lines starting with ``#`` are
    comments on input and are never emitted.
    """
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format produced by :func:`serialize_edge_list`.

    Duplicate edges collapse silently; loops, malformed lines, and
    out-of-range endpoints raise :class:`ParseError` with the line number.
    """
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ParseError(f"expected header 'n <count>', got {line!r}", lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if n < 0:
                raise ParseError(f"negative vertex count {n}", lineno)
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", lineno) from None
        if u == v:
            raise ParseError(f"loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) out of range for n={n}", lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'n <count>' header")
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# named families

_FAMILIES = ("complete", "cycle", "path", "complete_bipartite", "kneser", "xn")

_KNESER_VERTEX_CAP = 50_000


def complete_graph(m: int) -> Graph:
    if m < 0:
        raise ValueError(f"complete graph order must be nonnegative, got {m}")
    return Graph.from_edges(m, combinations(range(m), 2))


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError(f"cycle length must be at least 3, got {m}")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def path_graph(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"path order must be at least 1, got {m}")
    return Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: part one is vertices 0..a-1, part two is a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError(f"both part sizes must be positive, got ({a}, {b})")
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def kneser_graph(n: int, k: int) -> Graph:
    """Kneser graph: vertices are the n-subsets of a (2n+k)-set, labeled
    0.. in lexicographic subset order; edges join disjoint subsets."""
    if n < 1 or k < 0:
        raise ValueError(f"kneser parameters need n >= 1 and k >= 0, got ({n}, {k})")
    count = comb(2 * n + k, n)
    if count > _KNESER_VERTEX_CAP:
        raise ValueError(
            f"kneser({n}, {k}) has {count} vertices, beyond the "
            f"supported {_KNESER_VERTEX_CAP}")
    ground = range(2 * n + k)
    subsets = list(combinations(ground, n))
    index = {s: i for i, s in enumerate(subsets)}
    masks = []
    for s in subsets:  # its disjoint partners: the n-subsets of the rest
        rest = [x for x in ground if x not in s]
        masks.append(sum(1 << index[t] for t in combinations(rest, n)))
    return Graph(len(subsets), tuple(masks))


def xn_graph(k: int) -> Graph:
    """The partnered-clique family xn.

    Vertices 0..k-1 form a clique; partner vertices k..2k-1 are attached so
    that partner k+i is adjacent to every clique vertex except vertex i.
    No edges are placed among the partners.  2k vertices, 3k(k-1)/2 edges.
    """
    if k < 1:
        raise ValueError(f"xn order must be at least 1, got {k}")
    edges = list(combinations(range(k), 2))
    edges.extend((i, k + j) for i in range(k) for j in range(k) if i != j)
    return Graph.from_edges(2 * k, edges)


def make_named_graph(family: str, params: Sequence[int]) -> Graph:
    """Build a named graph; see the individual constructors for labeling."""
    params = list(params)
    if family == "complete":
        (m,) = params
        return complete_graph(m)
    if family == "cycle":
        (m,) = params
        return cycle_graph(m)
    if family == "path":
        (m,) = params
        return path_graph(m)
    if family == "complete_bipartite":
        a, b = params
        return complete_bipartite_graph(a, b)
    if family == "kneser":
        n, k = params
        return kneser_graph(n, k)
    if family == "xn":
        (k,) = params
        return xn_graph(k)
    raise ValueError(f"unknown family {family!r}; known: {', '.join(_FAMILIES)}")


def from_family_spec(spec: str) -> Graph:
    """Parse a compact family spec like ``complete:5`` or ``kneser:2,1``."""
    name, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"family spec needs the form name:p1[,p2], got {spec!r}")
    try:
        params = [int(tok) for tok in rest.split(",")]
    except ValueError:
        raise ValueError(f"non-integer parameter in family spec {spec!r}") from None
    try:
        return make_named_graph(name, params)
    except ValueError as exc:
        # surface arity mistakes (tuple unpack) uniformly
        raise ValueError(f"bad family spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# seeded G(n, p)


def _ramp(count: int) -> int:
    """The int whose lane t holds t, for t < ``count``."""
    return int.from_bytes(b"".join(t.to_bytes(LANE_BITS // 8, "little")
                                   for t in range(count)), "little")


# Pair t = (u, v), u < v in lexicographic order, is lane t of a big int:
# bits 128t..128t+127 (see seeds.splitmix64_lanes).  _KEY_LANES holds
# splitmix64(t), the per-pair half of mix64(seed, t) that no seed changes,
# for the pairs of _TABLE_N vertices.
_TABLE_N = 64
_TABLE_PAIRS = _TABLE_N * (_TABLE_N - 1) // 2
_TABLE_ONES = lane_ones(_TABLE_PAIRS)
_KEY_LANES = splitmix64_lanes(_ramp(_TABLE_PAIRS), _TABLE_ONES)

# A lane's bit 64 after the threshold add is 0 for an edge, 1 for none.
_EDGE_CHAR = bytes.maketrans(b"\0\1", b"10")


def _edge_chars(keys: int, ones: int, count: int, h: int,
                threshold: int) -> bytes:
    """For ``count`` lanes of keys, ``b"1"`` where ``splitmix64(h ^ key)``
    falls below ``threshold`` and ``b"0"`` elsewhere, the last lane first.

    ``draw + 2**64 - threshold`` reaches bit 64 iff the draw is not below
    the threshold, for every threshold from 0 to 2**64; the sum is below
    2**65, so it stays in its lane.  Big-endian, that bit is byte 7 of
    the lane's 16.
    """
    draws = splitmix64_lanes(keys ^ ones * h, ones)
    over = draws + ones * ((1 << 64) - threshold)
    return over.to_bytes(16 * count, "big")[7::16].translate(_EDGE_CHAR)


def _symmetric_masks(n: int, chars: bytes) -> tuple[int, ...]:
    """The adjacency masks of the graph on n vertices whose pairs are
    edges where ``chars`` (:func:`_edge_chars`, last pair first) is '1'.

    Row r of an n-by-n grid of chars gets the r pairs (u, v) of u = n-1-r,
    v from n - 1 down to u + 1, which are chars r(r-1)/2 onwards; so grid
    char n*r + c is entry (n-1-r, n-1-c) and ``int(grid, 2)`` has bit
    n*u + v for edge uv, u < v.  The transposed grid takes char j*n mod
    (n*n - 1) for its char j < n*n - 1, as n*n = 1 there: that maps
    j = n*r + c to r + n*c, and is one step-n slice of the grid repeated
    n times.
    """
    if n < 2:
        return (0,) * n
    grid = bytearray(b"0") * (n * n)
    t = 0
    for r in range(1, n):
        grid[n * r:n * r + r] = chars[t:t + r]
        t += r
    both = int(grid, 2) | int((grid[:-1] * n)[::n] + grid[-1:], 2)
    row = (1 << n) - 1
    return tuple([both >> k & row for k in range(0, n * n, n)])


def gnp_sample(n: int, p: float, seed: int) -> Graph:
    """Sample G(n, p) deterministically.

    Each unordered pair gets an independent 64-bit draw keyed on
    ``(seed, pair_index)`` where pair_index enumerates pairs (u, v), u < v,
    in lexicographic order.  The same arguments always give the same graph,
    independent of call order or platform.

    Pair t is an edge iff its draw ``mix64(seed, t) == splitmix64(mix64(seed)
    ^ splitmix64(t))`` falls below ``unit_threshold(p)``.  Every pair's draw
    is computed at once, each in its own 128-bit lane of one int
    (:func:`~nbcomplex.seeds.splitmix64_lanes`, exact lane by lane), so a
    call runs a fixed number of whole-int operations, not one
    ``splitmix64`` per pair.  The keys ``splitmix64(t)`` of the pairs of
    64 vertices are hashed into a lane table at import, and one
    int add against the threshold decides every pair.  The edges become
    the adjacency bitmasks through one char per pair and ``int(..., 2)``
    on a grid of them and on its transpose.  Above n = 64 the same kernel
    runs one row of pairs at a time, each row hashes its own keys, and its
    edges are copied into the masks of their other ends, so a call holds
    the lanes of one row, not of the graph.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability out of range: {p}")
    threshold = unit_threshold(p)
    h = mix64(seed)
    if n <= _TABLE_N:
        pairs = n * (n - 1) // 2
        low = (1 << LANE_BITS * pairs) - 1
        chars = _edge_chars(_KEY_LANES & low, _TABLE_ONES & low, pairs, h,
                            threshold)
        return Graph(n, _symmetric_masks(n, chars))
    masks = [0] * n
    all_ones, ramp = lane_ones(n - 1), _ramp(n - 1)
    first = 0  # the pairs (u, v), v > u, are first..first + count - 1
    for u in range(n - 1):
        count = n - 1 - u
        low = (1 << LANE_BITS * count) - 1
        ones = all_ones & low
        keys = splitmix64_lanes(ones * first + (ramp & low), ones)
        row = int(_edge_chars(keys, ones, count, h, threshold), 2) << u + 1
        masks[u] |= row
        for v in _bits(row):
            masks[v] |= 1 << u
        first += count
    return Graph(n, tuple(masks))


def derive_trial_seed(master_seed: int, p_index: int, trial_index: int) -> int:
    """Fixed public derivation of per-trial seeds used by surveys."""
    return mix64(master_seed, p_index, trial_index)


# ---------------------------------------------------------------------------
# cliques


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _expand(adj: Sequence[int], r: int, p: int, x: int,
            out: list[tuple[int, ...]]) -> None:
    """Report every maximal clique that contains ``r``, extends it from
    ``p`` and avoids ``x`` (all three are vertex bitmasks)."""
    if not p and not x:
        out.append(tuple(_bits(r)))
        return
    pivot, best = -1, -1
    px = p | x
    while px:
        low = px & -px
        u = low.bit_length() - 1
        eliminated = (p & adj[u]).bit_count()
        if eliminated > best:
            pivot, best = u, eliminated
        px ^= low
    cand = p & ~adj[pivot]
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        _expand(adj, r | low, p & adj[v], x & adj[v], out)
        p ^= low
        x |= low
        cand ^= low


def _require_clique_size(g: Graph, vertex_cap: int) -> None:
    # the wording predates maximum_clique and is kept: survey records and
    # CLI errors carry it
    if g.n > vertex_cap:
        raise ResourceCapError(
            f"maximal clique enumeration capped at {vertex_cap} vertices "
            f"(got {g.n}); raise vertex_cap to override")


def maximal_cliques(g: Graph, vertex_cap: int = 64) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each sorted, listed lexicographically.

    Bron–Kerbosch on adjacency bitmasks with the Tomita pivot: the pivot
    is the candidate or excluded vertex that eliminates the most
    candidates, smallest index on ties, so the search never varies.
    """
    _require_clique_size(g, vertex_cap)
    if g.n == 0:
        return []
    out: list[tuple[int, ...]] = []
    _expand(g.masks, 0, (1 << g.n) - 1, 0, out)
    return sorted(out)


def _largest(adj: Sequence[int], r: int, size: int, cand: int,
             best: tuple[int, int]) -> tuple[int, int]:
    """The better of ``best`` and the first largest clique that extends
    the clique ``r`` (of order ``size``) from ``cand``; cliques are given
    as (order, bitmask)."""
    if not cand:
        return (size, r) if size > best[0] else best
    while cand and size + cand.bit_count() > best[0]:
        low = cand & -cand
        cand ^= low
        best = _largest(adj, r | low, size + 1,
                        cand & adj[low.bit_length() - 1], best)
    return best


def maximum_clique(g: Graph, vertex_cap: int = 64) -> tuple[int, ...]:
    """The lexicographically first largest clique, sorted (() when n = 0).

    Carraghan–Pardalos: a depth-first search that adds candidates in
    ascending order, narrows the candidates with one AND against the new
    vertex's mask, and drops a branch when its clique plus all its
    candidates is no larger than the best clique so far.  Until the
    lexicographically first largest clique M is reached the best is
    smaller than M, so M's branch is never dropped, and every clique of
    M's order that the search meets before M would precede it.
    """
    _require_clique_size(g, vertex_cap)
    _, r = _largest(g.masks, 0, 0, (1 << g.n) - 1, (0, 0))
    return tuple(_bits(r))


def clique_number(g: Graph, vertex_cap: int = 64) -> int:
    """Order of the largest clique (0 for the empty graph)."""
    return len(maximum_clique(g, vertex_cap=vertex_cap))


# ---------------------------------------------------------------------------
# subgraph witnesses and detectors


@dataclass(frozen=True)
class SubgraphWitness:
    """A concrete placement of a sought subgraph.

    ``kind`` is one of ``clique``, ``complete_bipartite``, ``xn``.  For a
    clique there is one part; for the bipartite and xn kinds there are two
    (for xn: the clique vertices, then their partners in matching order).
    """

    kind: str
    parts: tuple[tuple[int, ...], ...]


def witness_is_valid(g: Graph, w: SubgraphWitness) -> bool:
    """Recheck every edge and non-edge a witness asserts."""
    flat = [v for part in w.parts for v in part]
    if len(set(flat)) != len(flat):
        return False
    if any(not 0 <= v < g.n for v in flat):
        return False
    if w.kind == "clique":
        (part,) = w.parts
        return all(g.has_edge(u, v) for u, v in combinations(part, 2))
    if w.kind == "complete_bipartite":
        a, b = w.parts
        return all(g.has_edge(u, v) for u in a for v in b)
    if w.kind == "xn":
        us, vs = w.parts
        if len(us) != len(vs):
            return False
        if not all(g.has_edge(u, v) for u, v in combinations(us, 2)):
            return False
        for i, vi in enumerate(vs):
            for j, uj in enumerate(us):
                if i == j:
                    if g.has_edge(uj, vi):
                        return False
                elif not g.has_edge(uj, vi):
                    return False
        return True
    raise ValueError(f"unknown witness kind {w.kind!r}")


def contains_complete_bipartite(g: Graph, a: int, b: int,
                                work_cap: int = 2_000_000) -> Optional[SubgraphWitness]:
    """First (A, B) placement of K_{a,b} as a subgraph, or None.

    Subgraph containment, not induced: the two parts need only be disjoint
    with all cross edges present.  A-sets are scanned in lexicographic
    order; B is the least b common neighbors outside A.
    """
    if a < 1 or b < 1:
        raise ValueError(f"part sizes must be positive, got ({a}, {b})")
    masks = g.masks
    steps = 0
    for A in combinations(range(g.n), a):
        steps += 1
        if steps > work_cap:
            raise ResourceCapError(
                f"complete-bipartite search exceeded work cap {work_cap}")
        common = -1
        for v in A:
            common &= masks[v]
        cand = _bits(common)  # never meets A: no vertex is its own neighbor
        if len(cand) >= b:
            return SubgraphWitness("complete_bipartite", (A, tuple(cand[:b])))
    return None


def contains_xn(g: Graph, k: int,
                work_cap: int = 2_000_000) -> Optional[SubgraphWitness]:
    """First placement of the partnered-clique graph xn(k), or None.

    Needs a k-clique U plus distinct partners outside U, where the partner
    of u is adjacent to every other clique vertex but not to u.  Edges among
    partners are permitted; only the listed edges and non-edges are required.
    """
    if k < 1:
        raise ValueError(f"xn order must be at least 1, got {k}")
    masks = g.masks
    every = (1 << g.n) - 1
    steps = 0
    for U in combinations(range(g.n), k):
        steps += 1
        if steps > work_cap:
            raise ResourceCapError(f"xn search exceeded work cap {work_cap}")
        inside = 0
        for u in U:
            inside |= 1 << u
        if any((inside & ~masks[u]) != 1 << u for u in U):
            continue  # not a clique
        partners = []
        for u in U:
            cand = every & ~masks[u] & ~inside
            for w in U:
                if w != u:
                    cand &= masks[w]
            if not cand:
                break
            partners.append((cand & -cand).bit_length() - 1)
        else:
            # partner pools for distinct clique vertices are disjoint when
            # k >= 2 (a shared partner would need an edge and a non-edge to
            # the same vertex), so the chosen partners are distinct
            return SubgraphWitness("xn", (U, tuple(partners)))
    return None


# ---------------------------------------------------------------------------
# density and balance


def density(g: Graph) -> Fraction:
    """Edge-vertex ratio e/v as an exact rational."""
    if g.n == 0:
        raise ValueError("density of the empty graph is undefined")
    return Fraction(g.edge_count, g.n)


def is_strictly_balanced(g: Graph, vertex_cap: int = 12) -> bool:
    """Whether every proper subgraph has strictly smaller density.

    It suffices to check induced subgraphs on proper nonempty vertex
    subsets: dropping edges alone always lowers density.  Exhaustive over
    2**n subsets, so capped.
    """
    if g.n == 0:
        raise ValueError("balance of the empty graph is undefined")
    if g.n > vertex_cap:
        raise ResourceCapError(
            f"strict balance check is exhaustive and capped at {vertex_cap} "
            f"vertices (got {g.n}); raise vertex_cap to override")
    d = density(g)
    masks = g.masks
    for size in range(1, g.n):
        for sub in combinations(range(g.n), size):
            inside = sum(1 << u for u in sub)
            e = sum((masks[u] & inside).bit_count() for u in sub) // 2
            if Fraction(e, size) >= d:
                return False
    return True
