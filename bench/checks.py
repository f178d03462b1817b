"""Independent checkers for the benchmark's outputs.

Nothing here imports nbcomplex: graphs arrive as vertex counts and edge
lists, vertex sets are bitmasks, and every answer is recomputed from the
definitions (faces of the neighborhood complex, boundary ranks over a prime
field, hitting sets, clique obstructions).  networkx is the outside
reference for clique numbers.
"""

from __future__ import annotations

from itertools import combinations

# A prime large enough that no torsion coefficient of these small complexes
# is divisible by it, so ranks mod it equal ranks over the rationals.
LARGE_PRIME = 2_147_483_647


def adjacency_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def faces_by_size(adj: list[int], max_size: int) -> list[list[int]]:
    """Faces of the neighborhood complex as bitmasks, grouped by size.

    Entry s holds the faces with s vertices for s = 1..max_size (entry 0 is
    unused).  A face is any nonempty subset of some vertex's neighborhood.
    """
    layers: list[set[int]] = [set() for _ in range(max_size + 1)]
    for nbhd in set(adj):
        verts = _bits(nbhd)
        for size in range(1, min(max_size, len(verts)) + 1):
            for combo in combinations(verts, size):
                mask = 0
                for v in combo:
                    mask |= 1 << v
                layers[size].add(mask)
    return [sorted(layer) for layer in layers]


def complex_dimension(adj: list[int]) -> int:
    return max((m.bit_count() for m in adj), default=0) - 1


def boundary_columns(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    """Boundary map from faces of size s+1 (``upper``) to size s (``lower``).

    The sign of deleting the j-th smallest vertex is (-1)**j; the augmentation
    (s = 0) is handled by the caller.
    """
    index = {f: i for i, f in enumerate(lower)}
    cols = []
    for face in upper:
        col = {}
        for j, v in enumerate(_bits(face)):
            col[index[face ^ (1 << v)]] = -1 if j % 2 else 1
        cols.append(col)
    return cols


def rank_mod(cols: list[dict[int, int]], prime: int) -> int:
    """Rank over GF(prime) by column reduction on lowest pivot rows."""
    if prime == 2:
        pivots2: dict[int, int] = {}
        for col in cols:
            vec = 0
            for r, v in col.items():
                if v % 2:
                    vec ^= 1 << r
            while vec:
                low = (vec & -vec).bit_length() - 1
                other = pivots2.get(low)
                if other is None:
                    pivots2[low] = vec
                    break
                vec ^= other
        return len(pivots2)
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        vec = {r: v % prime for r, v in col.items() if v % prime}
        while vec:
            low = min(vec)
            other = pivots.get(low)
            if other is None:
                inv = pow(vec[low], prime - 2, prime)
                pivots[low] = {r: v * inv % prime for r, v in vec.items()}
                break
            factor = vec[low]
            for r, v in other.items():
                nv = (vec.get(r, 0) - factor * v) % prime
                if nv:
                    vec[r] = nv
                else:
                    vec.pop(r, None)
        # an empty vec means the column depended on earlier ones
    return len(pivots)


def reduced_betti(adj: list[int], max_dim: int, prime: int) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(prime) in dimensions 0..max_dim."""
    faces = faces_by_size(adj, max_dim + 2)
    counts = [len(faces[k + 1]) for k in range(max_dim + 2)]
    ranks = [1 if counts[0] else 0]  # augmentation C_0 -> Z
    for k in range(1, max_dim + 2):
        ranks.append(rank_mod(boundary_columns(faces[k], faces[k + 1]), prime))
    ranks.append(0)
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(max_dim + 1))


def reduced_euler(adj: list[int]) -> int:
    """Alternating face count minus one: the alternating sum of reduced
    Betti numbers of a nonempty complex (0 for the empty complex)."""
    dim = complex_dimension(adj)
    if dim < 0:
        return 0
    faces = faces_by_size(adj, dim + 1)
    return sum((-1) ** (s - 1) * len(faces[s]) for s in range(1, dim + 2)) - 1


def complex_components(adj: list[int]) -> int:
    """Connected components of the neighborhood complex (0 when empty)."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for nbhd in adj:
        verts = _bits(nbhd)
        for v in verts:
            parent.setdefault(v, v)
        for v in verts[1:]:
            parent[find(v)] = find(verts[0])
    return len({find(v) for v in parent})


def even_factor_count(factors) -> int:
    return sum(1 for f in factors if f % 2 == 0)


def field2_from_integer(betti, torsion) -> list[int]:
    """GF(2) Betti numbers predicted by universal coefficients: the free rank
    plus one per even invariant factor in this degree and the one below."""
    return [b + even_factor_count(torsion[k])
            + (even_factor_count(torsion[k - 1]) if k else 0)
            for k, b in enumerate(betti)]


def min_hitting_set_size(n: int, sets: list[int]) -> int:
    """Size of a smallest vertex set meeting every set in ``sets``.

    Branch on the elements of the smallest unmet set; prune with the count
    of pairwise disjoint unmet sets, a lower bound on what is still needed.
    """
    best = n + 1

    def disjoint_bound(remaining: list[int]) -> int:
        used = 0
        count = 0
        for s in sorted(remaining, key=int.bit_count):
            if not s & used:
                used |= s
                count += 1
        return count

    def search(chosen: int, remaining: list[int]) -> None:
        nonlocal best
        if not remaining:
            best = min(best, chosen)
            return
        if chosen + disjoint_bound(remaining) >= best:
            return
        pick = min(remaining, key=int.bit_count)
        for v in _bits(pick):
            bit = 1 << v
            search(chosen + 1, [s for s in remaining if not s & bit])

    search(0, list(set(sets)))
    return best


def neighborliness(n: int, adj: list[int]) -> int:
    """Largest i such that every i-set of vertices has a common neighbor.

    A set has no common neighbor exactly when it meets every
    non-neighborhood V - N(v), so the answer is the minimum hitting set of
    the non-neighborhoods, minus one.
    """
    full = (1 << n) - 1
    return min_hitting_set_size(n, [full & ~m for m in adj]) - 1


def maximal_cliques(n: int, edges) -> list[list[int]]:
    """All maximal cliques, found by networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return list(nx.find_cliques(g))


def certificate_dims(adj: list[int], cliques) -> list[int]:
    """Sphere dimensions certified by maximal cliques, largest first.

    A maximal clique X with |X| >= 2 is certified when for some member x no
    vertex u outside X shares a neighbor with all of X - x.
    """
    n = len(adj)
    dims = []
    for clique in cliques:
        if len(clique) < 2:
            continue
        inside = sum(1 << v for v in clique)
        outside = [u for u in range(n) if not inside >> u & 1]
        for x in clique:
            common = (1 << n) - 1
            for w in clique:
                if w != x:
                    common &= adj[w]
            if not any(adj[u] & common for u in outside):
                dims.append(len(clique) - 2)
                break
    return sorted(dims, reverse=True)
