"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 10 includes one assertion that is exhaustively unattainable (the
king-grid search bound); it is implemented faithfully and marked as a strict
expected failure with the analysis in its docstring."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from errold.graph import Graph
from errold.detection import (RED_OLD, ERR_OLD, ALL_KINDS,
                              verify, verify_red_old_by_removal, exists_err_old,
                              forced_detectors)
from errold.solver import minimum_detector_set
from errold.extremal import (enumerate_graphs, quasi_cubic_expand,
                             valid_expansion_pairs)
from errold.reduction import (CnfFormula, build_instance, validate_gadgets,
                              roundtrip_check)
from errold.grids import (SQR, TRI, KNG, PeriodicPattern, pattern_density,
                          certify_pattern, detector_shares, search_patterns)
from errold.families import (petersen_graph, heawood_graph, prism_graph,
                             moebius_ladder, complete_graph, complete_bipartite,
                             disjoint_union, random_cubic_graph, random_graph)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def err_supporting(g):
    """Existence via the characterisation and via the maximal candidate set;
    the two must agree (their equivalence is itself criterion 3)."""
    a = exists_err_old(g).exists
    b = verify(g, g.full_mask(), ERR_OLD).ok
    assert a == b, f"existence routes disagree on {sorted(g.edges)}"
    return a


def test_criterion_01_no_small_graphs():
    """No graph on 1..6 vertices supports an error-correcting set.  (The
    vertexless graph satisfies every condition vacuously and is excluded,
    as in the underlying minimum-degree argument.)"""
    t0 = time.time()
    total = supporting = 0
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            total += 1
            supporting += err_supporting(g)
    elapsed = time.time() - t0
    report(1, supporting == 0 and elapsed < 60,
           f"{total} labeled graphs on 1 <= n <= 6, {supporting} supporting, {elapsed:.1f}s")


def test_criterion_02_seven_vertex_minimum():
    """At n = 7 the minimum edge count is 12 with exactly 2 graphs up to
    isomorphism, and nothing supports at m <= 11."""
    t0 = time.time()
    low_hits = 0
    scanned = 0
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    for m in range(12):
        for combo in itertools.combinations(range(21), m):
            scanned += 1
            deg = [0] * 7
            for idx in combo:
                u, v = pairs[idx]
                deg[u] += 1
                deg[v] += 1
            if min(deg) < 3:
                continue   # 3-domination of some vertex is impossible
            g = Graph(7, [pairs[i] for i in combo])
            low_hits += err_supporting(g)
    classes = enumerate_graphs(7, 12, predicate=lambda g: exists_err_old(g).exists,
                               min_degree=3)
    elapsed = time.time() - t0
    report(2, low_hits == 0 and len(classes) == 2 and elapsed < 600,
           f"m<=11: {low_hits} supporting graphs over {scanned} scanned; "
           f"m=12: {len(classes)} isomorphism classes, {elapsed:.1f}s")


def test_criterion_03_existence_equivalence():
    """exists_err_old(G) iff verify(G, V, ERR:OLD), exhaustively for n <= 7."""
    t0 = time.time()
    total = mismatches = 0
    for n in range(8):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            total += 1
            if exists_err_old(g).exists != verify(g, g.full_mask(), ERR_OLD).ok:
                mismatches += 1
    elapsed = time.time() - t0
    report(3, mismatches == 0,
           f"{total} labeled graphs on n <= 7, {mismatches} mismatches, {elapsed:.0f}s")


def test_criterion_04_red_old_oracle():
    """Removal-based RED:OLD agrees with the 2-dominated/2-distinguished
    characterisation on 1000 random (G, S) pairs with n <= 10."""
    rng = random.Random(104)
    mismatches = 0
    for _ in range(1000):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng)
        s = {v for v in range(g.n) if rng.random() < rng.uniform(0.3, 0.9)}
        if verify_red_old_by_removal(g, s) != verify(g, s, RED_OLD).ok:
            mismatches += 1
    report(4, mismatches == 0, f"1000 random (G,S) pairs, {mismatches} mismatches")


def cubic_family():
    """Exhaustive cubic isomorphism classes for n <= 8 plus a documented
    generated family at n = 10 and 12: the named cubic graphs in scope and
    200 seeded pairing-model samples per order."""
    fam = [cg.graph for n in (4, 6, 8)
           for cg in enumerate_graphs(n, 3 * n // 2, min_degree=3)]
    fam += [petersen_graph(), prism_graph(5), moebius_ladder(5),
            complete_bipartite(3, 3), prism_graph(6), moebius_ladder(6),
            disjoint_union(complete_graph(4), complete_bipartite(3, 3)),
            disjoint_union(complete_graph(4), complete_graph(4), complete_graph(4)),
            disjoint_union(petersen_graph(), heawood_graph())]
    rng = random.Random(105)
    for n in (10, 12):
        for _ in range(200):
            fam.append(random_cubic_graph(n, rng))
    return fam


def test_criterion_05_cubic_and_quasi_cubic():
    """Cubic/quasi-cubic support is exactly C4-freeness over the family."""
    fam = cubic_family()
    mismatches = 0
    c4_free = 0
    for g in fam:
        assert g.degree_summary()[2]
        free = not g.four_cycles()
        c4_free += free
        if err_supporting(g) != free:
            mismatches += 1
    # quasi-cubic graphs produced by the expansion: support and stay C4-free
    expansions = 0
    for g in fam:
        if g.four_cycles():
            continue
        for e1, e2 in valid_expansion_pairs(g)[:3]:
            q = quasi_cubic_expand(g, e1, e2)
            assert q.degree_summary()[3]
            free = not q.four_cycles()
            if err_supporting(q) != free or not free:
                mismatches += 1
            expansions += 1
    # hand-built quasi-cubic with a 4-cycle: both sides false
    k33 = complete_bipartite(3, 3)
    edges = [e for e in k33.sorted_edges() if e not in {(0, 3), (1, 4)}]
    edges += [(v, 6) for v in (0, 3, 1, 4)]
    qc4 = Graph(7, edges)
    assert qc4.degree_summary()[3] and qc4.four_cycles()
    if err_supporting(qc4):
        mismatches += 1
    report(5, mismatches == 0 and expansions > 20,
           f"{len(fam)} cubic graphs ({c4_free} C4-free), {expansions} expansions,"
           f" {mismatches} mismatches")


def test_criterion_06_derived_optima():
    """Minimum error-correcting sets: Petersen = 10 and Heawood = 14, both
    all-vertex by the forced-detector rule, each solved in under a second."""
    results = []
    for g, expect in ((petersen_graph(), 10), (heawood_graph(), 14)):
        t0 = time.time()
        res = minimum_detector_set(g, ERR_OLD)
        elapsed = time.time() - t0
        ok = (res.status == "optimal" and res.optimum == expect == g.n
              and forced_detectors(g) == set(range(g.n)) and elapsed < 1.0)
        results.append((res.optimum, elapsed, ok))
    report(6, all(r[2] for r in results),
           "; ".join(f"optimum {o} in {t:.3f}s" for o, t, _ in results))


FIG6 = CnfFormula(4, ((-1, -2, 3), (1, 2, -4), (1, -3, 4)))


def _random_formula(rng, n_vars, m):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n_vars, tuple(clauses))


def test_criterion_07_reduction_counts():
    """Instance sizes follow 25N+8M / 51N+17M / 22N+7M exactly."""
    inst = build_instance(FIG6)
    ok = (inst.graph.n, inst.graph.m, inst.k) == (124, 255, 109)
    rng = random.Random(107)
    checked = 0
    for _ in range(30):
        nv, m = rng.randint(3, 8), rng.randint(0, 6)
        f = _random_formula(rng, nv, m)
        i = build_instance(f)
        ok &= (i.graph.n, i.graph.m, i.k) == (25 * nv + 8 * m, 51 * nv + 17 * m,
                                              22 * nv + 7 * m)
        checked += 1
    report(7, ok, f"figure-6 instance 124/255/109; {checked} random formulas exact")


def roundtrip_formula_pool():
    """Exhaustive N=3, M<=2 family, designed unsatisfiable cases, and 50
    seeded random formulas with 4N + M <= 20."""
    clauses = [tuple(s * v for s, v in zip(signs, (1, 2, 3)))
               for signs in itertools.product((1, -1), repeat=3)]
    pool = [CnfFormula(3, (c,)) for c in clauses]
    pool += [CnfFormula(3, pair) for pair in itertools.combinations(clauses, 2)]
    pool.append(CnfFormula(3, tuple(clauses)))               # classic UNSAT, M = 8
    pool.append(CnfFormula(3, tuple(clauses[:7])))           # SAT by one assignment
    rng = random.Random(108)
    for _ in range(50):
        nv = rng.choice([3, 4])
        m = rng.randint(1, 20 - 4 * nv)
        pool.append(_random_formula(rng, nv, m))
    return pool


def test_criterion_08_roundtrip_equivalence():
    """Satisfiability iff a detector set within budget, over the pool."""
    t0 = time.time()
    pool = roundtrip_formula_pool()
    failures = sum(0 if roundtrip_check(f) else 1 for f in pool)
    elapsed = time.time() - t0
    report(8, failures == 0 and elapsed < 1800,
           f"{len(pool)} formulas (36 exhaustive + designed UNSAT + 50 random), "
           f"{failures} mismatches, {elapsed:.0f}s")


def test_criterion_09_gadget_forcing():
    """Structural gadget guarantees hold on every instance from criterion 8."""
    defects = 0
    instances = 0
    for f in roundtrip_formula_pool():
        inst = build_instance(f)
        rep = validate_gadgets(inst)
        if not rep.ok:
            defects += 1
        if len(inst.forced) != 21 * f.num_variables + 7 * f.num_clauses:
            defects += 1
        instances += 1
    report(9, defects == 0, f"{instances} instances validated, {defects} defective")


def test_criterion_10_grid_upper_bounds():
    """Search recovers certified patterns at the theorem's upper-bound
    densities; no certified pattern in range beats the stated lower bounds."""
    t0 = time.time()
    sqr = search_patterns(SQR, 8)
    tri = search_patterns(TRI, 7)
    kng = search_patterns(KNG, 18)
    elapsed = time.time() - t0
    ok = (pattern_density(sqr) == Fraction(7, 8) and certify_pattern(sqr).ok
          and pattern_density(tri) == Fraction(4, 7) and certify_pattern(tri).ok
          and pattern_density(kng) == Fraction(4, 9) and certify_pattern(kng).ok)
    # lower-bound guard: beating these would mean an implementation bug
    ok &= pattern_density(sqr) >= Fraction(6, 7)
    ok &= pattern_density(tri) >= Fraction(6, 11)
    ok &= pattern_density(kng) >= Fraction(36, 83)
    ok &= elapsed < 900
    report(10, ok,
           f"SQR@8 {pattern_density(sqr)}, TRI@7 {pattern_density(tri)}, "
           f"KNG@18 {pattern_density(kng)} (KNG needs index 18; the stated "
           f"max_index 9 is exhaustively unattainable, see xfail), {elapsed:.0f}s")


@pytest.mark.xfail(strict=True, reason=(
    "stated bound unattainable: exhaustive scan of every sublattice of index"
    " <= 9 and every detector subset shows the best certified king-grid"
    " density is 1/2; the 4/9 construction needs a period lattice of index 18"
    " (density 4/9 requires the index to be a multiple of 9, and 9 itself is"
    " ruled out), so the 4/9 target is reached at max_index 18 instead"))
def test_criterion_10_kng_at_stated_max_index():
    best = search_patterns(KNG, 9)
    assert best is not None and pattern_density(best) == Fraction(4, 9)


def test_criterion_11_property_suites():
    """Randomised property suites, at least ten thousand cases total."""
    cases = 0
    failures = 0

    # verifier pruning equivalence: exhaustive n = 5, then random up to n = 30
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for smask in (0, (1 << n) - 1, mask % (1 << n)):
                for kind in ALL_KINDS:
                    a = verify(g, smask, kind, strategy="pruned")
                    b = verify(g, smask, kind, strategy="naive")
                    failures += (a.ok, a.vertex, a.pair, a.value) != \
                                (b.ok, b.vertex, b.pair, b.value)
                    cases += 1
    rng = random.Random(111)
    for _ in range(400):
        g = random_graph(rng.randint(1, 30), rng.uniform(0.05, 0.5), rng)
        s = {v for v in range(g.n) if rng.random() < 0.7}
        for kind in ALL_KINDS:
            failures += verify(g, s, kind, "pruned").ok != verify(g, s, kind, "naive").ok
            cases += 1
    pruning_cases = cases

    # share sum identity on randomised certified patterns
    certified = 0
    for _ in range(1500):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        c = rng.randint(0, a - 1)
        kind = rng.choice([SQR, TRI, KNG])
        probe = PeriodicPattern(kind, ((a, 0), (c, b)), frozenset())
        classes = probe.residue_classes()
        pat = PeriodicPattern(kind, ((a, 0), (c, b)),
                              frozenset(rng.sample(classes, rng.randint(1, len(classes)))))
        cases += 1
        if certify_pattern(pat).ok:
            certified += 1
            failures += sum(detector_shares(pat)) != pat.index

    # one-sided difference of equal-size sets doubles in the symmetric difference
    for _ in range(3000):
        size = rng.randint(0, 12)
        a = set(rng.sample(range(30), size))
        b = set(rng.sample(range(30), size))
        failures += len(a ^ b) != 2 * len(a - b)
        cases += 1

    # translation / basis invariance of certification
    unimods = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)),
               ((1, -1), (0, 1)), ((2, 1), (1, 1))]
    for _ in range(1000):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        c = rng.randint(0, a - 1)
        kind = rng.choice([SQR, TRI, KNG])
        probe = PeriodicPattern(kind, ((a, 0), (c, b)), frozenset())
        classes = probe.residue_classes()
        pat = PeriodicPattern(kind, ((a, 0), (c, b)),
                              frozenset(rng.sample(classes, rng.randint(1, len(classes)))))
        base = certify_pattern(pat).ok
        moved = pat.translate((rng.randint(-5, 5), rng.randint(-5, 5)))
        failures += certify_pattern(moved).ok != base
        rebased = pat.change_basis(rng.choice(unimods))
        failures += certify_pattern(rebased).ok != base
        cases += 2

    report(11, failures == 0 and cases >= 10_000 and certified >= 50,
           f"{cases} randomized cases ({pruning_cases} pruning, {certified} certified"
           f" share patterns), {failures} failures")
