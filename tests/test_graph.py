import random

import pytest

from errold.graph import (MAX_VERTICES, Graph, GraphError, ParseError,
                          ResourceLimit, bits_to_list, parse_edge_list,
                          serialize_edge_list)
from errold.families import (complete_graph, cycle_graph, path_graph,
                             petersen_graph, random_graph, disjoint_union)


# -- parsing --------------------------------------------------------------------

def test_parse_basic():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_empty_stream():
    g = parse_edge_list("")
    assert g.n == 0 and not g.edges


def test_parse_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        parse_edge_list("0 0")


def test_parse_duplicate_edge_rejected():
    with pytest.raises(GraphError, match=r"^duplicate edge \(0,1\)$"):
        parse_edge_list("0 1\n1 0")
    with pytest.raises(GraphError, match=r"^duplicate edge \(2,5\)$"):
        Graph(6, [(5, 2), (0, 1), (5, 2)])


def test_parse_declared_count_and_comments():
    g = parse_edge_list("# comment\nn 5\n0 1\n# another\n2 3\n")
    assert g.n == 5
    assert g.degree(4) == 0


def test_parse_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n0 1 2")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("a b")


def test_parse_rejects_integers_int_alone_would_read():
    """Underscores and non-ASCII digits are not file integers, in the
    vertex count or in an endpoint."""
    with pytest.raises(ParseError, match=r"^line 1: bad vertex count '1_2'$"):
        parse_edge_list("n 1_2\n")
    with pytest.raises(ParseError, match=r"^line 2: non-integer endpoint in '0 \u0662'$"):
        parse_edge_list("n 3\n0 \u0662\n")
    with pytest.raises(ParseError, match=r"^line 1: non-integer endpoint in '1_0 2'$"):
        parse_edge_list("1_0 2\n")
    # non-ASCII text in a comment stays allowed
    assert parse_edge_list("# \u00e9t\u00e9\nn 3\n0 1\n").n == 3


def test_parse_serialize_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng.randint(0, 12), rng.random(), rng)
        g2 = parse_edge_list(serialize_edge_list(g))
        assert g2.n == g.n and g2.edges == g.edges


def test_vertex_count_guard():
    assert parse_edge_list(f"n {MAX_VERTICES}\n0 1\n").n == MAX_VERTICES
    for text in (f"n {MAX_VERTICES + 1}\n0 1\n", f"0 {MAX_VERTICES}\n"):
        with pytest.raises(ResourceLimit, match="vertex count"):
            parse_edge_list(text)


def test_identity_is_read_from_the_rows():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng.randint(0, 14), rng.random(), rng)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(edges)
        h = Graph(g.n, edges)
        assert h == g and hash(h) == hash(g)
        assert h.edges == frozenset(h.sorted_edges())
        assert h.sorted_edges() == sorted(h.edges)
        assert h.m == len(h.edges)
        if g.m:
            assert Graph(g.n, edges[1:]) != g
        assert Graph(g.n + 1, edges) != g


def test_edge_validation():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1)


# -- degree summary --------------------------------------------------------------

def test_degree_summary_examples():
    assert complete_graph(4).degree_summary() == (3, 3, True, False)
    assert cycle_graph(5).degree_summary() == (2, 2, False, False)
    assert petersen_graph().degree_summary() == (3, 3, True, False)
    assert Graph(0).degree_summary() == (0, 0, False, False)


def test_degree_summary_quasi_cubic():
    # cube graph with one extra diagonal handled elsewhere; build directly:
    # K4 plus a vertex joined to all of K4 is (4,4,4,4,4)-regular, not quasi
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])
    lo, hi, cubic, quasi = g.degree_summary()
    assert not cubic and not quasi  # vertex 3 has degree 3 but 4 has 3, 0..2 have 4


# -- 4-cycles ---------------------------------------------------------------------

def four_cycles_oracle(g):
    """Independent O(n^4) enumeration: every vertex quadruple, every pairing."""
    out = set()
    n = g.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if len({a, b, c, d}) < 4:
                        continue
                    if g.has_edge(a, b) and g.has_edge(b, c) and \
                            g.has_edge(c, d) and g.has_edge(d, a):
                        m = min(a, b, c, d)
                        # rotate/reflect to canonical start
                        cyc = [a, b, c, d]
                        i = cyc.index(m)
                        cyc = cyc[i:] + cyc[:i]
                        if cyc[3] < cyc[1]:
                            cyc = [cyc[0], cyc[3], cyc[2], cyc[1]]
                        out.add(tuple(cyc))
    return sorted(out)


def test_four_cycles_examples():
    assert len(cycle_graph(4).four_cycles()) == 1
    assert len(complete_graph(4).four_cycles()) == 3
    assert petersen_graph().four_cycles() == []


def test_four_cycles_against_oracle_exhaustive_small():
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert g.four_cycles() == four_cycles_oracle(g)


def test_four_cycles_against_oracle_random():
    rng = random.Random(1)
    for _ in range(40):
        g = random_graph(rng.randint(6, 8), rng.uniform(0.2, 0.8), rng)
        assert g.four_cycles() == four_cycles_oracle(g)


# -- twins -----------------------------------------------------------------------

def test_twin_examples():
    assert cycle_graph(4).twin_pairs() == [(0, 2, "open"), (1, 3, "open")]
    k4 = complete_graph(4).twin_pairs()
    assert len(k4) == 6 and all(kind == "closed" for _, _, kind in k4)
    assert petersen_graph().twin_pairs() == []


def test_twins_against_definition():
    rng = random.Random(2)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.9), rng)
        expected = []
        for u in range(g.n):
            nu = set(g.neighbors(u))
            for v in range(u + 1, g.n):
                nv = set(g.neighbors(v))
                if nu == nv:
                    expected.append((u, v, "open"))
                elif nu | {u} == nv | {v}:
                    expected.append((u, v, "closed"))
        assert g.twin_pairs() == expected


# -- distance <= 2 pairs ------------------------------------------------------------

def bfs_distances(g, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def test_pairs_within_distance_two_examples():
    assert path_graph(4).pairs_within_distance_two() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert complete_graph(4).pairs_within_distance_two() == \
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
    two_edges = disjoint_union(path_graph(2), path_graph(2))
    assert two_edges.pairs_within_distance_two() == [(0, 1), (2, 3)]


def test_pairs_within_distance_two_against_bfs():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng.randint(2, 50), rng.uniform(0.02, 0.3), rng)
        expected = set()
        for u in range(g.n):
            dist = bfs_distances(g, u)
            for v, d in dist.items():
                if v > u and d <= 2:
                    expected.add((u, v))
        assert set(g.pairs_within_distance_two()) == expected
        assert list(g.iter_pairs_within_distance_two()) == sorted(expected)


def low_bits_first(mask):
    """In-test copy of bits_to_list before it took bits from the top."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_to_list_matches_the_low_bit_loop():
    rng = random.Random(5)
    masks = [0, 1, 2, 3, 1 << 10_000, (1 << 12_345) - 1, 1 | 1 << 20_000]
    for _ in range(500):
        width = rng.choice((8, 64, 139, 2_000, 15_000))
        masks.append(rng.getrandbits(width) & rng.getrandbits(width))
        masks.append(sum(1 << rng.randrange(width) for _ in range(rng.randint(1, 9))))
    for mask in masks:
        assert bits_to_list(mask) == low_bits_first(mask)
    assert bits_to_list(0) == []


# -- edge predicates ---------------------------------------------------------------

def test_has_edge_is_false_outside_the_vertex_range():
    g = complete_graph(4)
    assert g.has_edge(0, 3) and g.has_edge(3, 0) and not g.has_edge(2, 2)
    for u, v in ((4, 0), (0, 4), (-1, 0), (0, -1), (0, -3), (4, 4)):
        assert not g.has_edge(u, v)


def test_edge_in_triangle():
    assert complete_graph(3).edge_in_triangle((0, 1))
    assert not cycle_graph(4).edge_in_triangle((0, 1))
    assert not cycle_graph(5).edge_in_triangle((2, 3))
    with pytest.raises(GraphError, match="not an edge"):
        cycle_graph(4).edge_in_triangle((0, 2))


def test_p5_terminal():
    p5 = path_graph(5)
    assert p5.edges_are_p5_terminal((0, 1), (3, 4))
    c6 = cycle_graph(6)
    assert c6.edges_are_p5_terminal((0, 1), (3, 4))
    split = disjoint_union(path_graph(2), path_graph(2))
    assert not split.edges_are_p5_terminal((0, 1), (2, 3))
    with pytest.raises(GraphError, match="share an endpoint"):
        p5.edges_are_p5_terminal((0, 1), (1, 2))
