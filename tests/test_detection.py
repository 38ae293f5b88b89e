import itertools
import random

import pytest

from errold.graph import Graph, ParseError, mask_of
from errold.detection import (OLD, RED_OLD, DET_OLD, ERR_OLD, ALL_KINDS,
                              ExistenceResult, Verdict, dominators, domination_profile, distinguishing_value,
                              verify, verify_red_old_by_removal, is_open_dominating,
                              exists_err_old, forced_detectors,
                              forced_detectors_for_kind, kind_from_flag,
                              parse_detector_set, serialize_detector_set,
                              requirements)
from errold.families import (complete_graph, cycle_graph, petersen_graph,
                             heawood_graph, random_graph, circulant_graph)


def naive_check(g, detectors, kind):
    """Definitional re-check built on plain sets, independent of bitmasks."""
    s = set(detectors)
    doms = {v: {w for w in g.neighbors(v) if w in s} for v in range(g.n)}
    if any(len(doms[v]) < kind.min_domination for v in range(g.n)):
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if kind.mode == "symmetric":
                val = len(doms[u] ^ doms[v])
            else:
                val = max(len(doms[u] - doms[v]), len(doms[v] - doms[u]))
            if val < kind.distinguish_threshold:
                return False
    return True


# -- dominators and distinguishing values ------------------------------------------

def test_dominators_examples():
    c5 = cycle_graph(5)
    assert dominators(c5, {0, 1, 2}, 0) == {1}
    assert dominators(c5, set(), 3) == set()
    assert dominators(complete_graph(4), range(4), 0) == {1, 2, 3}


def test_domination_profile():
    g = complete_graph(4)
    prof = domination_profile(g, {0, 1})
    assert prof[0] == ({1}, 1) and prof[2] == ({0, 1}, 2)


def test_distinguishing_value_examples():
    c4 = cycle_graph(4)
    assert distinguishing_value(c4, range(4), 0, 2) == 0          # open twins
    assert distinguishing_value(complete_graph(4), range(4), 0, 1) == 2
    # distance >= 3 pair sees both full neighbourhoods
    c7 = cycle_graph(7)
    assert distinguishing_value(c7, range(7), 0, 3) == 4


def test_distinguishing_one_sided():
    g = complete_graph(4)
    assert distinguishing_value(g, range(4), 0, 1, mode="one-sided") == 1
    with pytest.raises(ValueError):
        distinguishing_value(g, range(4), 2, 2)


# -- verify -------------------------------------------------------------------------

def test_verify_petersen_full():
    p = petersen_graph()
    assert verify(p, range(10), ERR_OLD).ok
    # definitional recheck
    assert naive_check(p, range(10), ERR_OLD)


def test_verify_k4_fails_with_pair_witness():
    v = verify(complete_graph(4), range(4), ERR_OLD)
    assert not v.ok and v.pair == (0, 1) and v.value == 2


def test_verify_petersen_minus_one_fails_domination():
    p = petersen_graph()
    v = verify(p, set(range(10)) - {0}, ERR_OLD)
    assert not v.ok and v.vertex == 1 and v.value == 2  # least neighbour of 0


def test_verify_empty_graph():
    assert verify(Graph(0), set(), ERR_OLD).ok


def test_verify_witness_deterministic_order():
    g = cycle_graph(6)
    v = verify(g, set(), OLD)
    assert v.vertex == 0


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_verify_matches_definitional_check(kind):
    rng = random.Random(hash(kind.name) & 0xFFFF)
    for _ in range(150):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng)
        s = {v for v in range(g.n) if rng.random() < 0.6}
        assert verify(g, s, kind).ok == naive_check(g, s, kind)


def test_pruned_equals_naive_exhaustive_small():
    # every graph on up to 4 vertices, every detector subset, every kind
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for smask in range(1 << n):
                s = {v for v in range(n) if smask >> v & 1}
                for kind in ALL_KINDS:
                    a = verify(g, s, kind, strategy="pruned")
                    b = verify(g, s, kind, strategy="naive")
                    assert (a.ok, a.vertex, a.pair, a.value) == \
                           (b.ok, b.vertex, b.pair, b.value)


def test_pruned_equals_naive_random_wide():
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng.randint(1, 30), rng.uniform(0.05, 0.5), rng)
        s = {v for v in range(g.n) if rng.random() < 0.7}
        for kind in ALL_KINDS:
            assert verify(g, s, kind, "pruned").ok == verify(g, s, kind, "naive").ok


def scan_first_failure(g, smask, kind, pairs=None):
    """In-test copy of the requirement scan before requirements() existed:
    vertices in order, then the pairs, each kind's test written out."""
    adj = g.adj
    d, t = kind.min_domination, kind.distinguish_threshold
    for v in range(g.n):
        got = (adj[v] & smask).bit_count()
        if got < d:
            return v, None, got
    if pairs is None:
        pairs = g.pairs_within_distance_two()
    for u, v in pairs:
        du, dv = adj[u] & smask, adj[v] & smask
        if kind.mode == "symmetric":
            got = (du ^ dv).bit_count()
        else:
            got = max((du & ~dv).bit_count(), (dv & ~du).bit_count())
        if got < t:
            return None, (u, v), got
    return None


def test_verdicts_match_the_written_out_scan():
    rng = random.Random(19)
    failures = set()
    for _ in range(300):
        g = random_graph(rng.randint(1, 14), rng.uniform(0.1, 0.9), rng)
        s = {v for v in range(g.n) if rng.random() < rng.uniform(0.5, 1.0)}
        for kind in ALL_KINDS:
            for strategy in ("pruned", "naive"):
                pairs = itertools.combinations(range(g.n), 2) \
                    if strategy == "naive" else None
                failure = scan_first_failure(g, mask_of(s), kind, pairs)
                expect = Verdict(True) if failure is None else Verdict(False, *failure)
                assert verify(g, s, kind, strategy) == expect
                failures.add(None if failure is None else failure[0] is None)
    assert failures == {None, True, False}


def every_requirement(g, kind, pairs=None):
    """In-test copy of the requirement generator before it took a `met`
    mask: every requirement, the pairs at distance <= 2 by default."""
    adj = g.adj
    d, t = kind.min_domination, kind.distinguish_threshold
    for v in range(g.n):
        yield v, None, (adj[v],), d
    if pairs is None:
        pairs = all_pairs_within_distance_two(g)
    for u, v in pairs:
        a, b = adj[u], adj[v]
        masks = (a & ~b, b & ~a) if kind.mode == "one-sided" else (a ^ b,)
        yield None, (u, v), masks, t


def test_requirements_skip_only_what_met_meets():
    # the requirements left unmet by `met`, in the unfiltered order
    rng = random.Random(23)
    kept = skipped = 0
    for _ in range(300):
        g = random_graph(rng.randint(1, 14), rng.uniform(0.1, 0.9), rng)
        for kind in ALL_KINDS:
            for pairs in (None, list(itertools.combinations(range(g.n), 2))):
                every = list(every_requirement(g, kind, pairs))
                assert list(requirements(g, kind, pairs)) == every
                for density in (0.2, 0.6, 0.9):
                    met = mask_of(v for v in range(g.n) if rng.random() < density)
                    unmet = [r for r in every if all(
                        (mask & met).bit_count() < r[3] for mask in r[2])]
                    assert list(requirements(g, kind, pairs, met)) == unmet
                    kept += len(unmet)
                    skipped += len(every) - len(unmet)
    assert kept > 10_000 and skipped > 10_000


# -- RED:OLD removal oracle -----------------------------------------------------------

def test_red_old_examples():
    p = petersen_graph()
    assert verify_red_old_by_removal(p, range(10)) == verify(p, range(10), RED_OLD).ok
    # K4 with all vertices: every pair is 2-distinguished by {u, v} itself and
    # a single removal cannot empty a 2-element difference, so both
    # formulations agree on True
    assert verify_red_old_by_removal(complete_graph(4), range(4))
    assert verify(complete_graph(4), range(4), RED_OLD).ok
    # empty set: both formulations false on a nonempty graph
    assert not verify_red_old_by_removal(p, set())
    assert not verify(p, set(), RED_OLD).ok


def test_red_old_equivalence_random():
    rng = random.Random(4)
    for _ in range(400):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.9), rng)
        s = {v for v in range(g.n) if rng.random() < 0.7}
        assert verify_red_old_by_removal(g, s) == verify(g, s, RED_OLD).ok


def test_red_old_equivalence_exhaustive_tiny():
    # exhaustive over graphs on up to 6 vertices, one random S per graph
    rng = random.Random(5)
    for n in range(7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            smask = rng.randrange(1 << n) if n else 0
            s = {v for v in range(n) if smask >> v & 1}
            assert verify_red_old_by_removal(g, s) == verify(g, s, RED_OLD).ok


# -- existence --------------------------------------------------------------------------

def test_exists_examples():
    r = exists_err_old(complete_graph(4))
    assert not r.exists and r.pair == (0, 2) and r.value == 2
    r = exists_err_old(cycle_graph(7))
    assert not r.exists and r.low_degree_vertex == 0
    assert exists_err_old(petersen_graph()).exists
    assert verify(petersen_graph(), range(10), ERR_OLD).ok


def test_exists_checks_both_diagonals():
    # existence must look at both opposite pairs of every 4-cycle
    rng = random.Random(6)
    for _ in range(300):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.3, 0.9), rng)
        expected = verify(g, range(g.n), ERR_OLD).ok
        assert exists_err_old(g).exists == expected


def exists_by_four_cycles(g):
    """Oracle: the existence test over the explicit list of 4-cycles."""
    for v in range(g.n):
        if g.degree(v) < 3:
            return ExistenceResult(False, low_degree_vertex=v)
    for a, b, c, d in g.four_cycles():
        for u, v in ((a, c), (b, d)):
            val = (g.adj[u] ^ g.adj[v]).bit_count()
            if val < 3:
                return ExistenceResult(False, cycle=(a, b, c, d), pair=(u, v), value=val)
    return ExistenceResult(True)


def test_exists_matches_four_cycle_oracle():
    # the full result, witness included, on every graph with up to 6
    # vertices and on random graphs up to 14 vertices
    for n in range(7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert exists_err_old(g) == exists_by_four_cycles(g)
    rng = random.Random(8)
    failing_cycles = 0
    for _ in range(2000):
        g = random_graph(rng.randint(7, 14), rng.uniform(0.3, 0.95), rng)
        expected = exists_by_four_cycles(g)
        assert exists_err_old(g) == expected
        failing_cycles += expected.cycle is not None
    assert failing_cycles > 200


def all_pairs_within_distance_two(g):
    """Oracle: every pair u < v, kept if adjacent or with a common neighbour."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.has_edge(u, v) or g.adj[u] & g.adj[v]]


def exists_by_all_pairs(g):
    """Oracle: the existence test scanning every pair for a failing
    opposite pair and keeping the least 4-cycle through one."""
    for v in range(g.n):
        if g.degree(v) < 3:
            return ExistenceResult(False, low_degree_vertex=v)
    adj = g.adj
    cycle = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = [w for w in range(g.n) if (adj[u] & adj[v]) >> w & 1]
            if len(common) >= 2 and (adj[u] ^ adj[v]).bit_count() < 3:
                x, y = common[:2]
                c = (x, u, y, v) if x < u else (u, x, v, y)
                cycle = c if cycle is None else min(cycle, c)
    if cycle is None:
        return ExistenceResult(True)
    a, b, c, d = cycle
    u, v = (a, c) if (adj[a] ^ adj[c]).bit_count() < 3 else (b, d)
    return ExistenceResult(False, cycle=cycle, pair=(u, v),
                           value=(adj[u] ^ adj[v]).bit_count())


def test_neighbour_walk_matches_all_pairs_scan():
    # dense graphs, and sparse graphs with and without padding to minimum
    # degree 3, n <= 40
    rng = random.Random(9)
    outcomes = {"exists": 0, "cycle": 0, "low": 0}
    for i in range(300):
        n = rng.randint(4, 40)
        if i % 3 == 0:
            g = random_graph(n, rng.uniform(0.4, 0.95), rng)
        else:
            edges = set(random_graph(n, rng.uniform(0.0, 0.1), rng).edges)
            for v in range(n if i % 3 == 1 else 0):
                while sum(v in e for e in edges) < 3:
                    w = rng.choice([w for w in range(n) if w != v])
                    edges.add((min(v, w), max(v, w)))
            g = Graph(n, edges)
        assert g.pairs_within_distance_two() == all_pairs_within_distance_two(g)
        expected = exists_by_all_pairs(g)
        assert exists_err_old(g) == expected
        outcomes["exists" if expected.exists else
                 "cycle" if expected.cycle else "low"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_twins_forbid_existence():
    rng = random.Random(7)
    found = 0
    for _ in range(300):
        g = random_graph(rng.randint(2, 9), rng.uniform(0.2, 0.9), rng)
        if g.twin_pairs():
            found += 1
            assert not exists_err_old(g).exists
    assert found > 50


# -- forced detectors ----------------------------------------------------------------------

def test_forced_detectors_examples():
    assert forced_detectors(petersen_graph()) == set(range(10))
    assert forced_detectors(heawood_graph()) == set(range(14))
    k5 = complete_graph(5)  # minimum degree 4
    assert forced_detectors(k5) == set()
    # quasi-cubic: every vertex has a degree-3 neighbour
    from errold.extremal import quasi_cubic_expand, valid_expansion_pairs
    h = heawood_graph()
    e1, e2 = valid_expansion_pairs(h)[0]
    q = quasi_cubic_expand(h, e1, e2)
    assert q.degree_summary()[3]
    assert forced_detectors(q) == set(range(q.n))


def test_monotone_failure_invariant():
    # any passing ERR:OLD set contains every forced detector
    rng = random.Random(8)
    hits = 0
    for _ in range(400):
        g = random_graph(rng.randint(12, 15), 0.5, rng)
        dropped = rng.sample(range(g.n), rng.randint(0, 2))
        s = set(range(g.n)) - set(dropped)
        if verify(g, s, ERR_OLD).ok:
            hits += 1
            assert forced_detectors(g) <= s
    assert hits > 20


def test_forced_for_kind_generalisation():
    g = petersen_graph()
    assert forced_detectors_for_kind(g, ERR_OLD) == set(range(10))
    # OLD on a cubic graph forces nothing: no vertex has degree exactly 1
    assert forced_detectors_for_kind(g, OLD) == set()
    rng = random.Random(12)
    for _ in range(300):
        g = random_graph(rng.randint(2, 9), rng.uniform(0.2, 0.8), rng)
        for kind in ALL_KINDS:
            forced = forced_detectors_for_kind(g, kind)
            s = {v for v in range(g.n) if rng.random() < 0.8}
            if verify(g, s, kind).ok:
                assert forced <= s


# -- Observation: one-sided difference of equal-size sets ------------------------------------

def test_equal_size_one_sided_difference_doubles():
    rng = random.Random(10)
    for _ in range(3000):
        size = rng.randint(0, 12)
        universe = range(30)
        a = set(rng.sample(universe, size))
        b = set(rng.sample(universe, size))
        k = len(a - b)
        assert len(a ^ b) == 2 * k


# -- regular-graph facts -----------------------------------------------------------------------

def regular_family():
    out = [petersen_graph(), heawood_graph(), complete_graph(4), complete_graph(5),
           complete_graph(6), circulant_graph(8, (1, 2)), circulant_graph(10, (1, 2)),
           circulant_graph(10, (2, 5)), circulant_graph(6, (1, 2)),
           circulant_graph(8, (1, 4)), circulant_graph(9, (1, 2))]
    return [g for g in out if g.degree_summary()[0] == g.degree_summary()[1] >= 3]


def test_det_old_iff_err_old_on_regular_graphs():
    from errold.extremal import enumerate_graphs
    fam = regular_family()
    for n in (4, 6, 8):
        fam.extend(cg.graph for cg in enumerate_graphs(n, 3 * n // 2, min_degree=3))
    assert len(fam) > 15
    for g in fam:
        assert exists_err_old(g).exists == verify(g, range(g.n), DET_OLD).ok


# -- detector-set files ---------------------------------------------------------------------------

def test_detector_set_parse():
    g = complete_graph(4)
    assert parse_detector_set("0 2\n# comment\n3\n", g) == {0, 2, 3}
    with pytest.raises(ParseError, match="line 1"):
        parse_detector_set("5", g)
    assert serialize_detector_set({2, 0}) == "0 2\n"


def test_detector_set_parse_rejects_integers_int_alone_would_read():
    g = complete_graph(4)
    with pytest.raises(ParseError, match=r"^line 2: bad vertex id '\uff12'$"):
        parse_detector_set("0 1\n3 \uff12\n", g)
    with pytest.raises(ParseError, match=r"^line 1: bad vertex id '1_0'$"):
        parse_detector_set("0 1_0\n", g)
    assert parse_detector_set("0 3 # \u0662\n", g) == {0, 3}


def test_kind_flags():
    assert kind_from_flag("err") is ERR_OLD
    assert kind_from_flag("redold") is RED_OLD
    with pytest.raises(ValueError):
        kind_from_flag("bogus")


def test_open_dominating():
    assert is_open_dominating(cycle_graph(4), {0, 1, 2})
    assert not is_open_dominating(cycle_graph(4), {0, 2})  # 0 has no detector neighbour
