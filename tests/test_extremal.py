import itertools
import random

import pytest

from errold.graph import Graph, GraphError
from errold.detection import exists_err_old, verify, ERR_OLD
from errold.extremal import (canonical_encoding, encoding_hex, graph_from_encoding,
                             CanonicalGraph, labeled_graphs, enumerate_graphs,
                             smallest_supporting_edge_count, quasi_cubic_expand,
                             valid_expansion_pairs, ResourceLimit)
from errold.families import (petersen_graph, heawood_graph, complete_graph,
                             complete_bipartite, random_graph, random_cubic_graph)


# -- canonical form ----------------------------------------------------------------

def brute_canonical(g):
    pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
    best = None
    for perm in itertools.permutations(range(g.n)):
        adj = [[False] * g.n for _ in range(g.n)]
        for u, v in g.edges:
            adj[perm[u]][perm[v]] = adj[perm[v]][perm[u]] = True
        enc = tuple(1 if adj[i][j] else 0 for i, j in pairs)
        if best is None or enc < best:
            best = enc
    return best if best is not None else ()


def test_canonical_matches_brute_force():
    rng = random.Random(20)
    for _ in range(150):
        n = rng.randint(0, 6)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        assert canonical_encoding(g) == brute_canonical(g)


def test_canonical_permutation_invariance():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.uniform(0.2, 0.7), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_encoding(g) == canonical_encoding(g2)


def test_canonical_on_symmetric_graphs():
    # heavy automorphism groups must not blow up the search
    assert canonical_encoding(complete_graph(10)) == tuple([1] * 45)
    assert canonical_encoding(complete_bipartite(5, 5)) == \
        canonical_encoding(Graph(10, [(i, 5 + j) for i in range(5) for j in range(5)]))
    canonical_encoding(petersen_graph())


def encoding_under(g, label):
    """The code of g when old vertex v carries new label label[v]."""
    vertex = sorted(range(g.n), key=label.__getitem__)
    return tuple(int(g.has_edge(vertex[i], vertex[j]))
                 for j in range(1, g.n) for i in range(j))


def test_bounded_search_is_the_canonicity_test():
    # the bound is g's code under some labelling: it comes back iff it is
    # the canonical code, and None otherwise; complete graphs, K55 and
    # Petersen lean on twin pruning and symmetry
    rng = random.Random(25)
    graphs = [random_graph(rng.randint(0, 8), rng.uniform(0.1, 0.9), rng)
              for _ in range(120)]
    graphs += [complete_graph(n) for n in (1, 2, 5, 10)]
    graphs += [complete_bipartite(5, 5), petersen_graph()]
    for g in graphs:
        canonical = canonical_encoding(g)
        codes = [canonical]
        for _ in range(6):
            label = list(range(g.n))
            rng.shuffle(label)
            codes.append(encoding_under(g, label))
        for c in codes:
            expect = c if c == canonical else None
            assert canonical_encoding(g, bound=c) == expect
            if g.n <= 6:
                assert expect == (c if c == brute_canonical(g) else None)


def test_encoding_graph_roundtrip():
    rng = random.Random(22)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.8), rng)
        enc = canonical_encoding(g)
        g2 = graph_from_encoding(g.n, enc)
        assert canonical_encoding(g2) == enc
        assert g2.m == g.m


def test_encoding_hex():
    assert encoding_hex(()) == "0"
    assert encoding_hex((1, 0, 1, 1)) == "b"
    cg = CanonicalGraph.of(complete_graph(3))
    assert cg.manifest_line() == f"3 3 {cg.hex}"


def test_canonical_cap():
    with pytest.raises(ResourceLimit):
        canonical_encoding(random_graph(11, 0.5, random.Random(0)))
    with pytest.raises(ResourceLimit):
        enumerate_graphs(11)
    for n, m, min_degree in ((-1, None, 0), (5, -5, 0), (5, None, -1)):
        with pytest.raises(GraphError):
            enumerate_graphs(n, m, min_degree=min_degree)


# -- labeled enumeration ---------------------------------------------------------------

def test_labeled_graph_counts():
    # against binomial counts, no degree constraint
    for n, m in ((4, 3), (5, 4), (5, 7)):
        total = n * (n - 1) // 2
        expect = len(list(itertools.combinations(range(total), m)))
        assert sum(1 for _ in labeled_graphs(n, m)) == expect


def test_labeled_min_degree_against_filter():
    rng = random.Random(23)
    for n, m, d in ((5, 7, 2), (6, 9, 3), (6, 10, 2), (7, 12, 3)):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        count = 0
        for combo in itertools.combinations(range(len(pairs)), m):
            deg = [0] * n
            for idx in combo:
                u, v = pairs[idx]
                deg[u] += 1
                deg[v] += 1
            if min(deg) >= d:
                count += 1
        assert sum(1 for _ in labeled_graphs(n, m, min_degree=d)) == count


def test_labeled_cubic_count_n6():
    # 70 labeled cubic graphs on 6 vertices
    assert sum(1 for _ in labeled_graphs(6, 9, min_degree=3)) == 70


def labeled_classes(n, edge_counts, min_degree=0):
    """Oracle: the canonical codes of all labeled graphs, as a sorted set.

    Only the first labeled graph met in each class is canonicalised; the
    edge sets of all its relabelings are recorded, so the rest of the class
    is recognised without another canonical_encoding call."""
    def slot(u, v):
        # bit of the pair in the column-major encoding order
        u, v = min(u, v), max(u, v)
        return 1 << (v * (v - 1) // 2 + u)

    relabel = [{(u, v): slot(p[u], p[v]) for u in range(n) for v in range(u + 1, n)}
               for p in itertools.permutations(range(n))]
    seen = set()
    found = set()
    for m in edge_counts:
        for edges in labeled_graphs(n, m, min_degree):
            if sum(slot(u, v) for u, v in edges) in seen:
                continue
            found.add(canonical_encoding(Graph(n, edges)))
            seen.update(sum(r[e] for e in edges) for r in relabel)
    return sorted(found)


def test_orderly_generation_matches_labeled_oracle():
    for n in range(7):
        for d in range(4):
            found = enumerate_graphs(n, min_degree=d)
            assert all(cg.graph == graph_from_encoding(n, cg.encoding) for cg in found)
            got = [cg.encoding for cg in found]
            assert got == labeled_classes(n, range(n * (n - 1) // 2 + 1), d), (n, d)
    for m in range(9, 15):
        got = [cg.encoding for cg in enumerate_graphs(7, m, min_degree=3)]
        assert got == labeled_classes(7, [m], 3), m


def test_canonical_encoding_is_prefix_closed():
    # the first k(k-1)/2 bits of a canonical code are the canonical code of
    # the graph induced on canonical labels 0..k-1
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 8)
        code = canonical_encoding(random_graph(n, rng.uniform(0.1, 0.9), rng))
        for k in range(n + 1):
            prefix = code[:k * (k - 1) // 2]
            assert canonical_encoding(graph_from_encoding(k, prefix)) == prefix


def test_predicate_runs_once_per_class():
    seen = []

    def count(g):
        seen.append(canonical_encoding(g))
        return g.m % 2 == 0

    found = enumerate_graphs(6, predicate=count, min_degree=2)
    classes = labeled_classes(6, range(16), 2)
    assert sorted(seen) == classes
    assert [cg.encoding for cg in found] == [c for c in classes if sum(c) % 2 == 0]
    seen.clear()
    # 4 classes among 5,670 labeled graphs; 11 edges, so none passes
    assert enumerate_graphs(7, 11, predicate=count, min_degree=3) == []
    assert len(seen) == 4


def test_one_canonicity_test_per_candidate_child(monkeypatch):
    # each candidate child costs one bounded canonical_encoding call, its
    # own code as the bound; the counts are the benchmark's enum workloads
    import errold.extremal
    bounds = []

    def count(g, **kwargs):
        bounds.append(kwargs.get("bound"))
        return canonical_encoding(g, **kwargs)

    monkeypatch.setattr(errold.extremal, "canonical_encoding", count)
    assert len(enumerate_graphs(7, 11, min_degree=3)) == 4
    assert len(bounds) == 304
    assert enumerate_graphs(7, 13, predicate=exists_err_old, min_degree=3) == []
    assert len(bounds) == 304 + 800
    assert None not in bounds


def test_enumerate_cubic_classes():
    assert len(enumerate_graphs(4, 6, min_degree=3)) == 1          # K4
    assert len(enumerate_graphs(6, 9, min_degree=3)) == 2          # K33, prism
    assert len(enumerate_graphs(8, 12, min_degree=3)) == 6         # 5 connected + K4+K4


def test_enumerate_no_small_err_graphs():
    assert enumerate_graphs(4, predicate=lambda g: exists_err_old(g).exists) == []


def test_figure_two_reproduction():
    twelve = enumerate_graphs(7, 12, predicate=lambda g: exists_err_old(g).exists,
                              min_degree=3)
    assert len(twelve) == 2
    for cg in twelve:
        assert verify(cg.graph, range(7), ERR_OLD).ok
        assert sorted(cg.graph.degrees()) == [3, 3, 3, 3, 4, 4, 4]
    eleven = enumerate_graphs(7, 11, predicate=lambda g: exists_err_old(g).exists,
                              min_degree=3)
    assert eleven == []


def test_smallest_supporting_edge_count_n7():
    m, graphs = smallest_supporting_edge_count(7)
    assert m == 12 and len(graphs) == 2


def test_smallest_supporting_bounds():
    with pytest.raises(ResourceLimit):
        smallest_supporting_edge_count(6)
    with pytest.raises(ResourceLimit):
        smallest_supporting_edge_count(11)


def test_no_cubic_witness_at_n8():
    # minimal m for n = 8 exceeds the handshake bound 12 iff no C4-free cubic
    # graph on 8 vertices exists; the enumeration confirms there is none
    hits = enumerate_graphs(8, 12, predicate=lambda g: exists_err_old(g).exists,
                            min_degree=3)
    assert hits == []


def test_no_quasi_cubic_witness_at_n9():
    # same check one order up: m = 14 on 9 vertices forces the quasi-cubic
    # degree sequence, and no C4-free example exists
    hits = enumerate_graphs(9, 14, predicate=lambda g: exists_err_old(g).exists,
                            min_degree=3)
    assert hits == []


def test_smallest_supporting_edge_count_n8():
    # regression anchor: value computed by this exhaustive enumeration
    m, graphs = smallest_supporting_edge_count(8)
    assert m == 14 and len(graphs) == 4
    for cg in graphs:
        assert exists_err_old(cg.graph).exists


# -- quasi-cubic expansion -----------------------------------------------------------------

def test_expand_heawood():
    h = heawood_graph()
    pairs = valid_expansion_pairs(h)
    assert pairs
    g2 = quasi_cubic_expand(h, *pairs[0])
    assert g2.n == 15
    assert g2.degree_summary() == (3, 4, False, True)
    assert exists_err_old(g2).exists
    assert g2.neighbors(14) == sorted(set(pairs[0][0]) | set(pairs[0][1]))


def test_expand_petersen_has_no_valid_pair():
    # every disjoint edge pair of the Petersen graph is the end pair of some
    # P5, so the expansion preconditions reject all of them
    p = petersen_graph()
    assert valid_expansion_pairs(p) == []
    edges = p.sorted_edges()
    seen = 0
    for e1, e2 in itertools.combinations(edges, 2):
        if set(e1) & set(e2):
            continue
        seen += 1
        with pytest.raises(GraphError):
            quasi_cubic_expand(p, e1, e2)
    assert seen > 0


def test_expand_error_cases():
    h = heawood_graph()
    with pytest.raises(GraphError, match="share a vertex"):
        quasi_cubic_expand(h, (0, 1), (1, 2))
    with pytest.raises(GraphError, match="cubic"):
        quasi_cubic_expand(complete_graph(5), (0, 1), (2, 3))
    with pytest.raises(GraphError, match="triangle"):
        quasi_cubic_expand(complete_graph(4), (0, 1), (2, 3))
    p5pair = None
    for e1, e2 in itertools.combinations(h.sorted_edges(), 2):
        if not set(e1) & set(e2) and h.edges_are_p5_terminal(e1, e2):
            p5pair = (e1, e2)
            break
    assert p5pair is not None
    with pytest.raises(GraphError, match="P5"):
        quasi_cubic_expand(h, *p5pair)
    # cubic with a 4-cycle, edges structurally fine: the support check fires
    from errold.families import prism_graph
    hexprism = prism_graph(6)
    assert not hexprism.edges_are_p5_terminal((0, 1), (9, 10))
    with pytest.raises(GraphError, match="supporting"):
        quasi_cubic_expand(hexprism, (0, 1), (9, 10))


def test_expansion_succeeds_exactly_on_the_listed_pairs():
    # one precondition predicate decides both the expansion and the listing
    rng = random.Random(47)
    graphs = [heawood_graph(), petersen_graph()]
    while len(graphs) < 5:
        g = random_cubic_graph(rng.choice((12, 14, 16)), rng)
        if exists_err_old(g).exists:
            graphs.append(g)
    for g in graphs:
        listed = set(valid_expansion_pairs(g))
        for e1, e2 in itertools.permutations(g.sorted_edges(), 2):
            try:
                quasi_cubic_expand(g, e1, e2)
            except GraphError:
                expanded = False
            else:
                expanded = True
            assert expanded == ((e1, e2) in listed or (e2, e1) in listed)


def test_expansion_defect_precedence():
    # a non-edge sharing a vertex with the other edge is reported as a non-edge
    h = heawood_graph()
    assert not h.has_edge(0, 2) and h.has_edge(0, 1)
    with pytest.raises(GraphError, match=r"^\(0,2\) is not an edge$"):
        quasi_cubic_expand(h, (0, 1), (0, 2))
    with pytest.raises(GraphError, match=r"^\(0,2\) is not an edge$"):
        quasi_cubic_expand(h, (0, 2), (0, 1))


def test_expansion_closure_property():
    # every expansion output is quasi-cubic and keeps support
    h = heawood_graph()
    for e1, e2 in valid_expansion_pairs(h)[:10]:
        g2 = quasi_cubic_expand(h, e1, e2)
        assert g2.degree_summary()[3]
        assert exists_err_old(g2).exists
        assert g2.four_cycles() == []
