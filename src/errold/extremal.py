"""Exhaustive small-graph enumeration up to isomorphism, extremal searches
for graphs supporting error-correcting detector sets, and the quasi-cubic
expansion construction.

Canonicalisation is the minimum encoding, over all vertex permutations, of
the adjacency bits in column-major pair order, computed by prefix-pruned
backtracking (exact, adequate for the supported range n <= 10).  Bounded by
a graph's code under some labelling, the same search only decides whether
that code is canonical, and stops at the first labelling that beats it.

Enumeration is orderly generation (R. C. Read, "Every one a winner", 1978;
B. D. McKay, "Isomorph-free exhaustive generation", 1998): each class comes
out once, as its canonical representative, with no deduplication.  Each
candidate child is kept iff the bounded search finds nothing below its own
code.  The tree is walked depth-first in the calling process.
`labeled_graphs`, the edge-slot enumeration of labeled graphs, is kept as
the test oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, ResourceLimit, bits_to_list, mask_of
from .detection import exists_err_old

MAX_CANONICAL_N = 10


def _pair_list(n: int) -> list[tuple[int, int]]:
    # column-major order: (0,1), (0,2), (1,2), (0,3), ... so that all pairs
    # within {0..j} precede any pair involving a vertex > j
    return [(i, j) for j in range(1, n) for i in range(j)]


def canonical_encoding(g: Graph, *,
                       bound: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
    """Minimum adjacency encoding over all vertex permutations or, given a
    `bound` that is the encoding of g under some labelling, the bound
    if no labelling encodes below it and None as soon as one does.

    The encoding lists adjacency bits for pairs in column-major order, so the
    bits contributed by new label j are known once labels 0..j are placed.
    The search keeps the invariant that the current partial labelling matches
    `best` (the bound, or all ones) exactly: a branch whose next bit exceeds
    best is pruned, and a branch with a smaller bit ends a bounded search,
    or else overwrites best's tail with the maximum padding, which preserves
    the invariant and only ever lowers best.  Unused vertices that are twins
    produce identical subtrees, so only one representative per twin class
    is tried."""
    n = g.n
    if n > MAX_CANONICAL_N:
        raise ResourceLimit(f"canonical form supported for n <= {MAX_CANONICAL_N}, got {n}")
    if n == 0:
        return ()
    adj = g.adj
    best = [1] * (n * (n - 1) // 2) if bound is None else list(bound)
    placed = [0] * n          # placed[k] = old vertex carrying new label k

    def candidates(used_mask: int) -> list[int]:
        reps: list[int] = []
        for w in range(n):
            if used_mask >> w & 1:
                continue
            for r in reps:
                clear = ~((1 << w) | (1 << r))
                if adj[w] & clear == adj[r] & clear:
                    break
            else:
                reps.append(w)
        return reps

    def rec(depth: int, pos: int, used_mask: int) -> bool:
        # True iff the search is bounded and a labelling encodes below it
        if depth == n:
            # invariant: best[:pos] equals the encoding of the labelling
            return False
        for w in candidates(used_mask):
            p = pos
            pruned = False
            for i in range(depth):
                bit = adj[placed[i]] >> w & 1
                if bit > best[p]:
                    pruned = True
                    break
                if bit < best[p]:
                    if bound is not None:
                        return True
                    best[p] = bit
                    for q in range(p + 1, len(best)):
                        best[q] = 1
                    for k in range(i + 1, depth):
                        best[pos + k] = adj[placed[k]] >> w & 1
                    break
                p += 1
            if pruned:
                continue
            placed[depth] = w
            if rec(depth + 1, pos + depth, used_mask | (1 << w)):
                return True
        return False

    return None if rec(0, 0, 0) else tuple(best)


def encoding_hex(encoding: tuple[int, ...]) -> str:
    """Encoding bits packed most-significant-first into hex."""
    if not encoding:
        return "0"
    value = 0
    for bit in encoding:
        value = value << 1 | bit
    width = (len(encoding) + 3) // 4
    return format(value, f"0{width}x")


def graph_from_encoding(n: int, encoding: tuple[int, ...]) -> Graph:
    pairs = _pair_list(n)
    return Graph(n, [pairs[k] for k, bit in enumerate(encoding) if bit])


@dataclass(frozen=True)
class CanonicalGraph:
    """A graph in canonical labelling plus its encoding; two graphs are
    isomorphic (within the supported range) iff their encodings are equal."""
    graph: Graph
    encoding: tuple[int, ...]

    @classmethod
    def of(cls, g: Graph) -> "CanonicalGraph":
        enc = canonical_encoding(g)
        return cls(graph_from_encoding(g.n, enc), enc)

    @property
    def hex(self) -> str:
        return encoding_hex(self.encoding)

    def manifest_line(self) -> str:
        return f"{self.graph.n} {self.graph.m} {self.hex}"


# -- enumeration ----------------------------------------------------------------


def labeled_graphs(n: int, m: int, min_degree: int = 0):
    """Yield the edge sets (as tuples of vertex pairs) of every labeled graph
    on n vertices with exactly m edges and minimum degree >= min_degree, edge
    slot by edge slot in column-major order; the oracle for enumerate_graphs.

    The handshake identity caps the maximum degree at 2m - min_degree*(n-1)
    whenever that bites."""
    pairs = _pair_list(n)
    total = len(pairs)
    if m > total or m < 0:
        return
    if min_degree * n > 2 * m:
        return
    max_degree = n - 1
    if min_degree > 0:
        max_degree = min(max_degree, 2 * m - min_degree * (n - 1))
        if max_degree < min_degree:
            return
    # slots incident to v at index >= idx
    inc_after = [[0] * n for _ in range(total + 1)]
    for idx in range(total - 1, -1, -1):
        row = inc_after[idx + 1][:]
        u, v = pairs[idx]
        row[u] += 1
        row[v] += 1
        inc_after[idx] = row

    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def feasible(idx: int, count: int) -> bool:
        if count + (total - idx) < m:
            return False
        deficit = 0
        row = inc_after[idx]
        for v in range(n):
            need = min_degree - deg[v]
            if need > 0:
                if row[v] < need:
                    return False
                deficit += need
        return deficit <= 2 * (m - count)

    def rec(idx: int, count: int):
        if count == m:
            if all(d >= min_degree for d in deg):
                yield tuple(chosen)
            return
        if idx == total or not feasible(idx, count):
            return
        u, v = pairs[idx]
        if deg[u] < max_degree and deg[v] < max_degree:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            yield from rec(idx + 1, count + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        yield from rec(idx + 1, count)

    yield from rec(0, 0)


def enumerate_graphs(n: int, edge_count: int | None = None,
                     predicate=None, min_degree: int = 0) -> list[CanonicalGraph]:
    """All pairwise non-isomorphic graphs on n vertices (optionally with a
    fixed edge count) with minimum degree >= min_degree that satisfy the
    predicate, each as its canonical representative, sorted by canonical
    encoding.

    Every canonical graph on k + 1 vertices extends a canonical graph on k
    vertices by the adjacency column of vertex k (see _children), so each
    class comes out exactly once.  The predicate runs once per class, on
    the canonical representative, and must be isomorphism-invariant."""
    if n > MAX_CANONICAL_N:
        raise ResourceLimit(f"enumeration supported for n <= {MAX_CANONICAL_N}, got {n}")
    if min(n, edge_count or 0, min_degree) < 0:
        raise GraphError("vertex count, edge count and minimum degree must be "
                         f"non-negative, got {n}, {edge_count}, {min_degree}")
    bounds = (0, n * (n - 1) // 2) if edge_count is None else (edge_count, edge_count)
    # the empty graph has no edges and, as in Graph.degree_summary, minimum
    # degree 0; for n > 0, _children applies both bounds
    if n == 0 and (bounds[0] > 0 or min_degree > 0):
        return []
    found = _complete(CanonicalGraph(Graph(0), ()), n, bounds, min_degree, predicate)
    return sorted(found, key=lambda cg: cg.encoding)


def _complete(parent: CanonicalGraph, n: int, bounds: tuple[int, int],
              min_degree: int, predicate) -> list[CanonicalGraph]:
    """The classes on n vertices that grow from one canonical graph and pass
    the predicate, found depth-first with one level of recursion per vertex
    still to add."""
    if parent.graph.n == n:
        return [parent] if predicate is None or predicate(parent.graph) else []
    return [cg for child in _children(parent, n, bounds, min_degree)
            for cg in _complete(child, n, bounds, min_degree, predicate)]


def _children(parent: CanonicalGraph, n: int, bounds: tuple[int, int],
              min_degree: int):
    """The canonical graphs that add vertex k = parent.graph.n to the
    canonical graph `parent` and can still grow into a graph on n vertices
    with an edge count within `bounds` and minimum degree >= min_degree.

    The encoding is prefix-closed: relabelling the first k vertices of a
    graph changes only the first k(k-1)/2 bits of its code, so the code of a
    canonical graph starts with the code of the canonical graph on its first
    k labels.  A child is kept iff its code (the parent's code followed by
    the new column) is its canonical encoding, which the search bounded by
    that code decides."""
    g = parent.graph
    k = g.n
    lo, hi = bounds
    edges = g.sorted_edges()
    rest = n - 1 - k                           # vertices still to come after k
    later = (n * (n - 1) - (k + 1) * k) // 2   # pairs still open after column k
    degs = g.degrees()
    # vertices the later ones alone cannot lift to min_degree must join k;
    # `short` vertices are still below min_degree
    must = mask_of(v for v, d in enumerate(degs) if d + rest < min_degree)
    short = mask_of(v for v, d in enumerate(degs) if d < min_degree)
    deficit = sum(max(0, min_degree - d) for d in degs) + rest * min_degree
    free = (1 << k) - 1 & ~must
    sub = free
    while True:
        column = must | sub
        c = column.bit_count()
        m = len(edges) + c
        # each edge still to come adds 2 to the degree sum, which must cover
        # what the vertices are still missing
        missing = deficit - (column & short).bit_count() + max(0, min_degree - c)
        if lo <= m + later and m <= hi and c + rest >= min_degree \
                and 2 * (hi - m) >= missing:
            child = Graph(k + 1, edges + [(i, k) for i in bits_to_list(column)])
            code = parent.encoding + tuple(column >> i & 1 for i in range(k))
            if canonical_encoding(child, bound=code) == code:
                yield CanonicalGraph(child, code)
        if not sub:
            return
        sub = sub - 1 & free


def smallest_supporting_edge_count(n: int) -> tuple[int, list[CanonicalGraph]]:
    """Minimal edge count m for which some n-vertex graph supports an
    error-correcting detector set, with all witnesses up to isomorphism.

    Existence requires minimum degree 3, so the scan starts at the handshake
    bound m = ceil(3n/2)."""
    if not 7 <= n <= MAX_CANONICAL_N:
        raise ResourceLimit(f"supported for 7 <= n <= {MAX_CANONICAL_N}, got {n}")
    total = n * (n - 1) // 2
    for m in range((3 * n + 1) // 2, total + 1):
        hits = enumerate_graphs(n, m, predicate=exists_err_old, min_degree=3)
        if hits:
            return m, hits
    raise AssertionError(f"no supporting graph found for n={n}")


def quasi_cubic_expand(g: Graph, e1: tuple[int, int], e2: tuple[int, int]) -> Graph:
    """Replace two independent edges ab, cd of a cubic graph by a new vertex
    adjacent to a, b, c, d.  Requires the source graph to support an
    error-correcting detector set and the chosen edges to avoid triangles
    and P5 ends; the result is quasi-cubic, keeps support, and gives the new
    vertex id n."""
    if not g.degree_summary()[2]:
        raise GraphError("expansion requires a cubic graph")
    defect = _expansion_defect(g, e1, e2)
    if defect is not None:
        raise GraphError(defect)
    if not exists_err_old(g).exists:
        raise GraphError("expansion requires a graph supporting an ERR:OLD set")
    (a, b), (c, d) = e1, e2
    drop = {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    edges = [e for e in g.sorted_edges() if e not in drop]
    x = g.n
    edges.extend((v, x) for v in (a, b, c, d))
    return Graph(g.n + 1, edges)


def _expansion_defect(g: Graph, e1: tuple[int, int], e2: tuple[int, int]):
    """The first edge precondition of the expansion that e1, e2 fail, as
    its message, or None: both are edges, disjoint, off triangles and not
    the terminal edges of a P5."""
    (a, b), (c, d) = e1, e2
    for u, v in (e1, e2):
        if not g.has_edge(u, v):
            return f"({u},{v}) is not an edge"
    if {a, b} & {c, d}:
        return "edges share a vertex"
    for u, v in (e1, e2):
        if g.edge_in_triangle((u, v)):
            return f"edge ({u},{v}) lies in a triangle"
    if g.edges_are_p5_terminal(e1, e2):
        return "edges are the terminal edges of a P5 subgraph"
    return None


def valid_expansion_pairs(g: Graph):
    """All unordered pairs of edges meeting the expansion preconditions."""
    es = g.sorted_edges()
    return [(e1, e2) for i, e1 in enumerate(es) for e2 in es[i + 1:]
            if _expansion_defect(g, e1, e2) is None]
