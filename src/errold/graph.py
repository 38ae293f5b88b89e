"""Simple undirected graphs with bitset adjacency and the structural queries
(degrees, 4-cycles, twins, short distances, triangle/P5 edge predicates)
used throughout the toolkit.

Vertices are dense integers 0..n-1.  A graph stores only its adjacency rows
(bit v of adj[u] is set iff uv is an edge), built on construction; the
edge set, the edge count, equality, hashing and the pairs at distance <= 2
are all read from the rows.  Graphs are immutable after construction, so a
single graph can be shared freely.
"""

from __future__ import annotations

import itertools


class GraphError(ValueError):
    """Invalid graph data (self-loop, duplicate edge, bad vertex id)."""


class ParseError(ValueError):
    """Malformed input text; message carries the offending line number."""


class ResourceLimit(Exception):
    """Request exceeds a supported size."""


Edge = tuple[int, int]

# Largest vertex count an edge list may declare or imply.
MAX_VERTICES = 100_000


class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = adj

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return sum(self.degrees()) // 2

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.sorted_edges())

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def neighbors(self, v: int) -> list[int]:
        return bits_to_list(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff uv is an edge; False for any id outside 0..n-1."""
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def sorted_edges(self) -> list[Edge]:
        # row u from bit u up holds the neighbours v > u, in increasing order
        return [(u, v) for u, row in enumerate(self.adj)
                for v in bits_to_list(row >> u << u)]

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- structural queries --------------------------------------------------

    def degree_summary(self) -> tuple[int, int, bool, bool]:
        """(min degree, max degree, is-cubic, is-quasi-cubic).

        Quasi-cubic: exactly one vertex of degree 4, all others degree 3.
        The empty graph reports (0, 0, False, False).
        """
        if self.n == 0:
            return (0, 0, False, False)
        degs = self.degrees()
        lo, hi = min(degs), max(degs)
        cubic = lo == hi == 3
        quasi = lo == 3 and hi == 4 and degs.count(4) == 1
        return (lo, hi, cubic, quasi)

    def four_cycles(self) -> list[tuple[int, int, int, int]]:
        """All 4-cycle subgraphs, one canonical tuple per cycle.

        A cycle (a,b,c,d) has edges ab, bc, cd, da (diagonals may or may not
        be present).  Canonical form: start at the least vertex, second
        element the smaller of its two cycle neighbours.  Each cycle is found
        twice (once per opposite pair), so results are deduplicated.
        """
        found: set[tuple[int, int, int, int]] = set()
        for u in range(self.n):
            for v in range(u + 1, self.n):
                common = bits_to_list(self.adj[u] & self.adj[v])
                for x, y in itertools.combinations(common, 2):
                    quad = sorted((u, v, x, y))
                    a = quad[0]
                    # opposite pairs are {u,v} and {x,y}
                    if a in (u, v):
                        opp = u + v - a
                        b, d = sorted((x, y))
                    else:
                        opp = x + y - a
                        b, d = sorted((u, v))
                    found.add((a, b, opp, d))
        return sorted(found)

    def twin_pairs(self) -> list[tuple[int, int, str]]:
        """All unordered twin pairs, tagged 'open' (N(u)=N(v)) or 'closed'
        (N[u]=N[v]).  A pair cannot be both."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if self.adj[u] == self.adj[v]:
                    out.append((u, v, "open"))
                elif self.adj[u] | (1 << u) == self.adj[v] | (1 << v):
                    out.append((u, v, "closed"))
        return out

    def pairs_within_distance_two(self) -> list[tuple[int, int]]:
        """All unordered pairs u < v at graph distance 1 or 2, in
        lexicographic order (see iter_pairs_within_distance_two)."""
        return list(self.iter_pairs_within_distance_two())

    def iter_pairs_within_distance_two(self):
        """The pairs of pairs_within_distance_two, lazily.  Each u walks its
        neighbours and their neighbours, so the loop runs over the pairs
        found, not over all n(n-1)/2 pairs."""
        adj = self.adj
        for u, row in enumerate(adj):
            reach = rest = row
            while rest:
                low = rest & -rest
                reach |= adj[low.bit_length() - 1]
                rest ^= low
            reach >>= u + 1
            while reach:
                low = reach & -reach
                yield u, u + low.bit_length()
                reach ^= low

    def edge_in_triangle(self, e: Edge) -> bool:
        """True iff the endpoints of e share a neighbour.  e must be an edge."""
        u, v = e
        if not self.has_edge(u, v):
            raise GraphError(f"({u},{v}) is not an edge")
        return bool(self.adj[u] & self.adj[v])

    def edges_are_p5_terminal(self, e1: Edge, e2: Edge) -> bool:
        """True iff vertex-disjoint edges e1, e2 are the terminal edges of
        some path on 5 distinct vertices."""
        a, b = e1
        c, d = e2
        if not self.has_edge(a, b):
            raise GraphError(f"({a},{b}) is not an edge")
        if not self.has_edge(c, d):
            raise GraphError(f"({c},{d}) is not an edge")
        if {a, b} & {c, d}:
            raise GraphError("edges share an endpoint")
        used = (1 << a) | (1 << b) | (1 << c) | (1 << d)
        # path p1-p2-z-p4-p5 with {p1,p2} = e1, {p4,p5} = e2
        for p2 in (a, b):
            for p4 in (c, d):
                if self.adj[p2] & self.adj[p4] & ~used:
                    return True
        return False


def bits_to_list(mask: int) -> list[int]:
    """The set bits of `mask` in increasing order, taken from the top."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# -- edge-list format ---------------------------------------------------------
#
# UTF-8 text; '#' starts a comment line; an optional first non-comment line
# "n <count>" declares the vertex count; every other non-comment line is
# "<u> <v>".  Without a declaration, n = 1 + max vertex id (0 when empty).


def _plain_int(token: str) -> int:
    if token.isascii() and "_" not in token:
        return int(token)
    raise ValueError(token)


def int_reader(line: str):
    """The integer reader for the tokens of one input line: `int` on a plain
    ASCII line without '_', and otherwise one that refuses the underscores
    and non-ASCII digits `int` would read."""
    return int if line.isascii() and "_" not in line else _plain_int


def parse_edge_list(text: str) -> Graph:
    declared_n = None
    edges: list[Edge] = []
    saw_edge = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        to_int = int_reader(line)
        if parts[0] == "n" and not saw_edge and declared_n is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed vertex-count line {line!r}")
            try:
                declared_n = to_int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        try:
            u, v = to_int(parts[0]), to_int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        edges.append((u, v))
        saw_edge = True
    if declared_n is None:
        declared_n = 1 + max((max(e) for e in edges), default=-1)
    if declared_n > MAX_VERTICES:
        raise ResourceLimit(f"vertex count {declared_n} exceeds the limit of "
                            f"{MAX_VERTICES}")
    return Graph(declared_n, edges)


def serialize_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"
