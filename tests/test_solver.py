import itertools
import random

import pytest

from errold.graph import Graph
from errold.detection import (OLD, RED_OLD, DET_OLD, ERR_OLD, ALL_KINDS,
                              verify, forced_detectors)
from errold.solver import (minimum_detector_set, decision, detector_set_within,
                           SearchBudgetExceeded)
from errold.families import (complete_graph, petersen_graph,
                             heawood_graph, random_graph)

# the two minimum-order graphs supporting an error-correcting set (7 vertices,
# 12 edges); optima frozen from an independent scan of all 2^7 subsets
EXTREMAL_7_12 = [
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 6),
     (4, 5), (4, 6), (5, 6)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 6),
     (3, 5), (4, 6), (5, 6)],
]


def brute_force_minimum(g, kind):
    """In-test oracle: subsets in size-then-lex order, definitional verify."""
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            if verify(g, combo, kind, strategy="naive").ok:
                return k
    return None


def test_petersen_err_old_is_ten():
    res = minimum_detector_set(petersen_graph(), ERR_OLD)
    assert res.status == "optimal" and res.optimum == 10
    assert res.witness == set(range(10))


def test_heawood_err_old_is_fourteen():
    res = minimum_detector_set(heawood_graph(), ERR_OLD)
    assert res.status == "optimal" and res.optimum == 14


@pytest.mark.parametrize("graph, kind, optimum, nodes", [
    (heawood_graph, OLD, 8, 4155), (heawood_graph, RED_OLD, 12, 483),
    (heawood_graph, DET_OLD, 12, 483), (heawood_graph, ERR_OLD, 14, 1),
    (petersen_graph, OLD, 5, 265), (petersen_graph, RED_OLD, 8, 137),
    (petersen_graph, DET_OLD, 9, 97), (petersen_graph, ERR_OLD, 10, 1),
])
def test_serial_search_is_pinned(graph, kind, optimum, nodes):
    # the serial report prints both numbers; a change to the search that
    # moves either must say so
    res = minimum_detector_set(graph(), kind)
    assert (res.status, res.optimum, res.nodes_explored) == ("optimal", optimum, nodes)


def test_k4_err_old_infeasible():
    assert minimum_detector_set(complete_graph(4), ERR_OLD).status == "infeasible"


@pytest.mark.parametrize("edges", EXTREMAL_7_12)
def test_seven_vertex_extremal_graphs(edges):
    g = Graph(7, edges)
    for strategy in ("branch-and-bound", "exhaustive"):
        res = minimum_detector_set(g, ERR_OLD, strategy=strategy)
        assert res.status == "optimal" and res.optimum == 7
    assert brute_force_minimum(g, ERR_OLD) == 7


def test_decision_examples():
    p = petersen_graph()
    assert decision(p, ERR_OLD, 10)
    assert not decision(p, ERR_OLD, 9)
    assert not decision(complete_graph(4), ERR_OLD, 4)
    with pytest.raises(ValueError):
        decision(p, ERR_OLD, -1)


def test_empty_graph():
    res = minimum_detector_set(Graph(0), ERR_OLD)
    assert res.status == "optimal" and res.optimum == 0 and res.witness == set()


def test_oracle_agreement_exhaustive_small():
    # every graph on up to 4 vertices, all kinds, both strategies vs oracle
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for kind in ALL_KINDS:
                expect = brute_force_minimum(g, kind)
                a = minimum_detector_set(g, kind, strategy="exhaustive")
                b = minimum_detector_set(g, kind, strategy="branch-and-bound")
                got_a = a.optimum if a.status == "optimal" else None
                got_b = b.optimum if b.status == "optimal" else None
                assert got_a == got_b == expect


def test_oracle_agreement_random():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.2, 0.8), rng)
        kind = rng.choice(ALL_KINDS)
        a = minimum_detector_set(g, kind, strategy="exhaustive")
        b = minimum_detector_set(g, kind, strategy="branch-and-bound")
        assert (a.status, a.optimum) == (b.status, b.optimum)
        if a.status == "optimal":
            assert verify(g, a.witness, kind).ok
            assert verify(g, b.witness, kind).ok
            assert len(b.witness) == b.optimum


def test_forcing_consistency():
    rng = random.Random(14)
    for _ in range(100):
        g = random_graph(rng.randint(4, 11), rng.uniform(0.4, 0.8), rng)
        res = minimum_detector_set(g, ERR_OLD)
        if res.status == "optimal":
            assert forced_detectors(g) <= res.witness


def err_old_family():
    # a graph passing the error-correcting existence test is feasible for
    # every kind, so those graphs exercise the full chain
    from errold.detection import exists_err_old
    rng = random.Random(15)
    family = [petersen_graph(), heawood_graph()] + \
        [Graph(7, e) for e in EXTREMAL_7_12]
    while len(family) < 14:
        g = random_graph(rng.randint(12, 14), 0.5, rng)
        if exists_err_old(g).exists:
            family.append(g)
    return family


def test_monotonicity_across_kinds():
    for g in err_old_family():
        results = {kind.name: minimum_detector_set(g, kind) for kind in ALL_KINDS}
        assert all(r.status == "optimal" for r in results.values())
        assert results["OLD"].optimum <= results["RED:OLD"].optimum
        assert results["RED:OLD"].optimum <= results["DET:OLD"].optimum
        assert results["OLD"].optimum <= results["ERR:OLD"].optimum


def test_budget_exhaustion_carries_bound():
    g = random_graph(12, 0.5, random.Random(16))
    if minimum_detector_set(g, OLD).status != "optimal":
        pytest.skip("need a feasible instance")
    with pytest.raises(SearchBudgetExceeded) as exc:
        minimum_detector_set(g, OLD, budget=3)
    assert exc.value.nodes_explored == 3


def test_parallel_matches_serial():
    for g in (petersen_graph(), random_graph(11, 0.5, random.Random(17))):
        for kind in (OLD, ERR_OLD):
            serial = minimum_detector_set(g, kind, jobs=1)
            parallel = minimum_detector_set(g, kind, jobs=2)
            assert (serial.status, serial.optimum) == (parallel.status, parallel.optimum)
            if serial.status == "optimal":
                assert serial.witness == parallel.witness


def test_decision_agrees_with_minimisation():
    family = err_old_family() + [complete_graph(4), random_graph(9, 0.4, random.Random(18))]
    for g in family:
        for kind in ALL_KINDS:
            res = minimum_detector_set(g, kind)
            for k in range(g.n + 1):
                expect = res.status == "optimal" and res.optimum <= k
                assert decision(g, kind, k) == expect, (g, kind, k)


def test_parallel_decision_matches_serial():
    g = err_old_family()[-1]
    for kind in (OLD, ERR_OLD):
        res = minimum_detector_set(g, kind)
        for k in (res.optimum - 1, res.optimum, res.optimum + 2):
            assert detector_set_within(g, kind, k, jobs=2) == \
                detector_set_within(g, kind, k)
