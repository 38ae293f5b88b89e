import itertools
import random

import pytest

import errold.solver
from errold.graph import Graph, bits_to_list, mask_of
from errold.detection import (OLD, RED_OLD, DET_OLD, ERR_OLD, ALL_KINDS,
                              verify, forced_detectors, forced_detectors_for_kind,
                              requirements)
from errold.solver import (minimum_detector_set, detector_set_within,
                           SearchBudgetExceeded, _compile, _examine, _propagate,
                           _children)
from errold.families import (complete_graph, petersen_graph,
                             heawood_graph, random_graph)
from errold.reduction import CnfFormula, build_instance

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


def gnp_24():
    """G(24, 0.3), edges u < v drawn in lexicographic order from
    random.Random(1): large enough that the carried lists shrink."""
    return random_graph(24, 0.3, random.Random(1))


@pytest.mark.parametrize("graph, kind, optimum, nodes", [
    (heawood_graph, OLD, 8, 589), (heawood_graph, RED_OLD, 12, 75),
    (heawood_graph, DET_OLD, 12, 75), (heawood_graph, ERR_OLD, 14, 1),
    (petersen_graph, OLD, 5, 37), (petersen_graph, RED_OLD, 8, 17),
    (petersen_graph, DET_OLD, 9, 19), (petersen_graph, ERR_OLD, 10, 1),
    (gnp_24, OLD, 7, 1505), (gnp_24, RED_OLD, 9, 921),
    (gnp_24, DET_OLD, 12, 1837), (gnp_24, ERR_OLD, 13, 231),
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
    assert detector_set_within(p, ERR_OLD, 10) is not None
    assert detector_set_within(p, ERR_OLD, 9) is None
    assert detector_set_within(complete_graph(4), ERR_OLD, 4) is None
    for g in (p, complete_graph(4)):
        with pytest.raises(ValueError):
            detector_set_within(g, ERR_OLD, -1)


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
    for budget in (3, 0):
        with pytest.raises(SearchBudgetExceeded) as exc:
            minimum_detector_set(g, OLD, budget=budget)
        assert exc.value.nodes_explored == budget
    with pytest.raises(ValueError):
        minimum_detector_set(g, OLD, budget=-1)


def test_decision_agrees_with_minimisation():
    family = err_old_family() + [complete_graph(4), random_graph(9, 0.4, random.Random(18))]
    for g in family:
        for kind in ALL_KINDS:
            res = minimum_detector_set(g, kind)
            for k in range(g.n + 1):
                expect = res.status == "optimal" and res.optimum <= k
                assert (detector_set_within(g, kind, k) is not None) == expect, \
                    (g, kind, k)


# -- the requirement-driven core against brute force ----------------------------


def completions(g, kind, chosen, undecided):
    """In-test oracle: every valid set S with chosen <= S <= chosen | undecided."""
    free = bits_to_list(undecided)
    out = []
    for k in range(len(free) + 1):
        for combo in itertools.combinations(free, k):
            s = chosen | mask_of(combo)
            if verify(g, s, kind, strategy="naive").ok:
                out.append(s)
    return out


def random_walks(rng, count, max_n):
    """(graph, kind, compiled requirements, carried, node) for the nodes on
    random root-to-leaf walks through the search tree, one walk per kind on
    each of `count` random graphs with a feasible root; carried is the
    requirement lists the node's parent handed it (the compiled ones at the
    root)."""
    graphs = 0
    while graphs < count:
        g = random_graph(rng.randint(4, max_n), rng.uniform(0.3, 0.7), rng)
        roots = [(kind, *_compile(g, kind)) for kind in ALL_KINDS]
        if roots[0][2] is None:
            continue
        graphs += 1
        for kind, reqs, root in roots:
            node, carried = (None, None) if root is None else ((*root, -1), reqs)
            while node is not None:
                yield g, kind, reqs, carried, node
                step = _examine(carried, *node, None)
                if step is None or step[0][2] is None:
                    break
                node, carried = rng.choice(_children(*step[0])), step[1]


def test_propagation_is_sound():
    # on random partial nodes below search-tree nodes, a vertex propagation
    # forces lies in every valid completion and a node it prunes has none
    rng = random.Random(41)
    pruned = forced = 0
    for g, kind, reqs, _, (chosen, undecided, _) in random_walks(rng, 200, 8):
        partial = chosen | rng.getrandbits(g.n) & undecided
        for s in (chosen, partial):
            rest = undecided & ~s & rng.getrandbits(g.n)
            valid = completions(g, kind, s, rest)
            full = _propagate(*reqs, s, rest)
            assert (full is None) == (not valid)
            if full is None:
                pruned += 1
                continue
            forced += full[0] != s
            for detectors in valid:
                assert detectors & full[0] == full[0]
    assert pruned > 200 and forced > 150


def test_examine_propagates_like_a_full_pass():
    # a take child needs no propagation, and a skip child only that of the
    # requirements its parent left unmet
    rng = random.Random(46)
    skips = 0
    for g, kind, reqs, carried, node in random_walks(rng, 300, 12):
        step = _examine(carried, *node, None)
        full = _propagate(*reqs, *node[:2])
        assert (step is None) == (full is None)
        assert step is None or step[0][:2] == full
        skips += node[2] >= 0
    assert skips > 500


def test_carried_lists_examine_like_the_compiled_ones():
    # a node examined on the lists its parent carried propagates, bounds and
    # branches as on every compiled requirement, and the lists held along a
    # walk sum to at most four times the root's
    rng = random.Random(47)
    shrunk = {kind.name: 0 for kind in ALL_KINDS}
    bound_prunes = either = deepest = 0
    held = []

    def size(lists):
        return len(lists[0]) + len(lists[1])

    for g, kind, reqs, carried, node in random_walks(rng, 150, 20):
        if carried is reqs:
            held = []
        if not any(carried is lists for lists in held):
            held.append(carried)
        assert sum(map(size, held)) <= 4 * size(reqs)
        deepest = max(deepest, len(held))
        shrunk[kind.name] += size(carried) < size(reqs)
        either += len(carried[1]) < len(reqs[1])
        for bound in (None, node[0].bit_count() + rng.randint(1, 4)):
            step = _examine(carried, *node, bound)
            full = _examine(reqs, *node, bound)
            assert (step is None) == (full is None)
            assert step is None or step[0] == full[0]
            bound_prunes += bound is not None and full is None and \
                _examine(reqs, *node, None) is not None
    assert min(shrunk.values()) > 150 and either > 250 and bound_prunes > 800
    assert deepest > 5


def compile_every_requirement(g, kind):
    """In-test copy of the compile before it started from the degree rule:
    every requirement, the root propagated from (nothing, V), then the
    requirements the root's chosen set meets left out."""
    plain, either = [], []
    for _, _, masks, need in requirements(g, kind):
        if len(masks) == 2:
            a, b = masks
            either.append((a, b, need))
            plain.append((a | b, need))
        else:
            plain.append((masks[0], need))
    root = _propagate(plain, either, 0, g.full_mask())
    if root is None:
        return None, None
    chosen = root[0]
    plain = [(mask, need) for mask, need in plain
             if (mask & chosen).bit_count() < need]
    either = [(a, b, need) for a, b, need in either
              if max((a & chosen).bit_count(), (b & chosen).bit_count()) < need]
    return (plain, either), root


# N = 3, M = 8: one of the benchmark's round-trip shapes
FORMULA_3_8 = CnfFormula(3, ((1, 2, 3), (-1, 2, -3), (1, -2, 3), (-1, -2, -3),
                             (1, -2, -3), (2, -3, 1), (-2, 3, -1), (3, 1, -2)))


def random_formula(rng):
    n = rng.randint(3, 5)
    return CnfFormula(n, tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(rng.randint(1, 8))))


def test_compile_matches_the_full_compile():
    # skipping what the degree rule meets changes no compiled list and no
    # root, on random graphs and on reduction instances
    rng = random.Random(48)
    graphs = [random_graph(rng.randint(0, 16), rng.uniform(0.1, 0.9), rng)
              for _ in range(300)]
    instances = [build_instance(random_formula(rng)) for _ in range(30)]
    instances.append(build_instance(FORMULA_3_8))
    infeasible = 0
    for g in graphs + [inst.graph for inst in instances]:
        for kind in ALL_KINDS:
            expected = compile_every_requirement(g, kind)
            assert _compile(g, kind) == expected
            infeasible += expected[1] is None
    assert infeasible > 300
    for inst in instances:
        _, (chosen, _) = _compile(inst.graph, ERR_OLD)
        assert mask_of(inst.forced) & ~chosen == 0


def test_compile_builds_only_what_the_degree_rule_leaves_unmet(monkeypatch):
    # the 139-vertex instance has 1,008 requirements; the degree rule meets
    # all but the 22 the search keeps, so only those are built
    built = []

    def counted(*args, **kwargs):
        for req in requirements(*args, **kwargs):
            built.append(req)
            yield req
    monkeypatch.setattr(errold.solver, "requirements", counted)
    g = build_instance(FORMULA_3_8).graph
    assert len(list(requirements(g, ERR_OLD))) == 1_008
    reqs, _ = _compile(g, ERR_OLD)
    assert (len(built), len(reqs[0]), len(reqs[1])) == (22, 22, 0)


def test_root_propagation_covers_the_degree_rule():
    rng = random.Random(42)
    for _ in range(200):
        g = random_graph(rng.randint(2, 12), rng.uniform(0.3, 0.9), rng)
        for kind in ALL_KINDS:
            _, root = _compile(g, kind)
            if root is not None:
                assert mask_of(forced_detectors_for_kind(g, kind)) & ~root[0] == 0


def test_packing_bound_never_exceeds_the_optimum():
    # a bound one above the least completion never prunes the node
    rng = random.Random(43)
    for g, kind, _, carried, node in random_walks(rng, 150, 8):
        valid = completions(g, kind, node[0], node[1])
        if valid:
            least = min(s.bit_count() for s in valid)
            assert _examine(carried, *node, least + 1) is not None


def test_branch_and_bound_matches_exhaustive():
    rng = random.Random(44)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.3, 0.9), rng)
        for kind in ALL_KINDS:
            a = minimum_detector_set(g, kind, strategy="exhaustive")
            b = minimum_detector_set(g, kind)
            assert (a.status, a.optimum) == (b.status, b.optimum)
            if b.status == "optimal":
                assert verify(g, b.witness, kind, strategy="naive").ok
            outcomes.add(b.status)
    assert outcomes == {"optimal", "infeasible"}
