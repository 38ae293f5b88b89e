"""Exhaustive small-graph enumeration up to isomorphism, extremal searches
for graphs supporting error-correcting detector sets, and the quasi-cubic
expansion construction.

Canonicalisation is the minimum edge-set encoding over all vertex
permutations, computed by prefix-pruned backtracking (exact, adequate for
the supported range n <= 10).  Labeled enumeration walks the edge slots in
lexicographic order with degree-deficit pruning, so degree-constrained
families (minimum degree 3, cubic, quasi-cubic) come out far faster than
blind subset iteration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, GraphError, ResourceLimit
from .detection import exists_err_old
from .parallel import run_tasks, split_depth

MAX_CANONICAL_N = 10


def _pair_list(n: int) -> list[tuple[int, int]]:
    # column-major order: (0,1), (0,2), (1,2), (0,3), ... so that all pairs
    # within {0..j} precede any pair involving a vertex > j
    return [(i, j) for j in range(1, n) for i in range(j)]


def supports_err_old(g: Graph) -> bool:
    """Module-level predicate for enumeration filters (picklable, so it works
    with jobs > 1)."""
    return exists_err_old(g).exists


def canonical_encoding(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency encoding over all vertex permutations.

    The encoding lists adjacency bits for pairs in column-major order, so the
    bits contributed by new label j are known once labels 0..j are placed.
    The search keeps the invariant that the current partial labelling matches
    `best` exactly: a branch whose next bit exceeds best is pruned, and a
    branch with a smaller bit overwrites best's tail with the maximum
    padding, which preserves the invariant and only ever lowers best.
    Unused vertices that are twins produce identical subtrees, so only one
    representative per twin class is tried."""
    n = g.n
    if n > MAX_CANONICAL_N:
        raise ResourceLimit(f"canonical form supported for n <= {MAX_CANONICAL_N}, got {n}")
    if n == 0:
        return ()
    adj = g.adj
    best = [1] * (n * (n - 1) // 2)
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

    def rec(depth: int, pos: int, used_mask: int):
        if depth == n:
            # invariant: best[:pos] equals the encoding of the labelling
            return
        for w in candidates(used_mask):
            p = pos
            pruned = False
            for i in range(depth):
                bit = adj[placed[i]] >> w & 1
                if bit > best[p]:
                    pruned = True
                    break
                if bit < best[p]:
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
            rec(depth + 1, pos + depth, used_mask | (1 << w))

    rec(0, 0, 0)
    return tuple(best)


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


# -- labeled enumeration -------------------------------------------------------


def labeled_graphs(n: int, m: int, min_degree: int = 0,
                   prefix: tuple[int, ...] = ()):
    """Yield the edge sets (as tuples of vertex pairs) of every labeled graph
    on n vertices with exactly m edges and minimum degree >= min_degree.

    `prefix` fixes the include/exclude decision for the first len(prefix)
    edge slots, which lets callers partition the search across workers.
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
        branches = (True, False) if idx >= len(prefix) else \
            ((True,) if prefix[idx] else (False,))
        for take in branches:
            if take:
                if deg[u] >= max_degree or deg[v] >= max_degree:
                    continue
                deg[u] += 1
                deg[v] += 1
                chosen.append((u, v))
                yield from rec(idx + 1, count + 1)
                chosen.pop()
                deg[u] -= 1
                deg[v] -= 1
            else:
                yield from rec(idx + 1, count)

    yield from rec(0, 0)


def enumerate_graphs(n: int, edge_count: int | None = None,
                     predicate=None, min_degree: int = 0,
                     jobs: int = 1) -> list[CanonicalGraph]:
    """All pairwise non-isomorphic graphs on n vertices (optionally with a
    fixed edge count) whose labeled instances satisfy the predicate.

    The predicate must be isomorphism-invariant; it is applied to labeled
    graphs before canonical deduplication.  Results are sorted by canonical
    encoding."""
    if n > MAX_CANONICAL_N:
        raise ResourceLimit(f"enumeration supported for n <= {MAX_CANONICAL_N}, got {n}")
    ms = range(n * (n - 1) // 2 + 1) if edge_count is None else [edge_count]
    tasks = [(n, m, predicate, min_degree, prefix)
             for m in ms
             for prefix in itertools.product((1, 0), repeat=split_depth(jobs, 4))]
    found: dict[tuple[int, ...], CanonicalGraph] = {}
    for chunk in run_tasks(_enum_chunk, tasks, jobs):
        for enc, cg in chunk.items():
            found.setdefault(enc, cg)
    return [found[k] for k in sorted(found)]


def _enum_chunk(args) -> dict[tuple[int, ...], CanonicalGraph]:
    """The classes among the labeled graphs below one edge-slot prefix."""
    n, m, predicate, min_degree, prefix = args
    out = {}
    for edges in labeled_graphs(n, m, min_degree, prefix=prefix):
        g = Graph(n, edges)
        if predicate is not None and not predicate(g):
            continue
        enc = canonical_encoding(g)
        if enc not in out:
            out[enc] = CanonicalGraph(graph_from_encoding(n, enc), enc)
    return out


def smallest_supporting_edge_count(n: int, jobs: int = 1) -> tuple[int, list[CanonicalGraph]]:
    """Minimal edge count m for which some n-vertex graph supports an
    error-correcting detector set, with all witnesses up to isomorphism.

    Existence requires minimum degree 3, so the scan starts at the handshake
    bound m = ceil(3n/2)."""
    if not 7 <= n <= MAX_CANONICAL_N:
        raise ResourceLimit(f"supported for 7 <= n <= {MAX_CANONICAL_N}, got {n}")
    total = n * (n - 1) // 2
    for m in range((3 * n + 1) // 2, total + 1):
        hits = enumerate_graphs(n, m, predicate=supports_err_old,
                                min_degree=3, jobs=jobs)
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
    a, b = e1
    c, d = e2
    if not g.has_edge(a, b):
        raise GraphError(f"({a},{b}) is not an edge")
    if not g.has_edge(c, d):
        raise GraphError(f"({c},{d}) is not an edge")
    if {a, b} & {c, d}:
        raise GraphError("edges share a vertex")
    if g.edge_in_triangle((a, b)):
        raise GraphError(f"edge ({a},{b}) lies in a triangle")
    if g.edge_in_triangle((c, d)):
        raise GraphError(f"edge ({c},{d}) lies in a triangle")
    if g.edges_are_p5_terminal((a, b), (c, d)):
        raise GraphError("edges are the terminal edges of a P5 subgraph")
    if not exists_err_old(g).exists:
        raise GraphError("expansion requires a graph supporting an ERR:OLD set")
    drop = {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    edges = [e for e in g.sorted_edges() if e not in drop]
    x = g.n
    edges.extend((v, x) for v in (a, b, c, d))
    return Graph(g.n + 1, edges)


def valid_expansion_pairs(g: Graph):
    """All unordered pairs of edges meeting the expansion preconditions."""
    es = g.sorted_edges()
    out = []
    for i, e1 in enumerate(es):
        for e2 in es[i + 1:]:
            if set(e1) & set(e2):
                continue
            if g.edge_in_triangle(e1) or g.edge_in_triangle(e2):
                continue
            if g.edges_are_p5_terminal(e1, e2):
                continue
            out.append((e1, e2))
    return out
