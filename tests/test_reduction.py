import itertools
import random

import pytest

from errold.graph import Graph, ParseError
from errold.detection import verify, ERR_OLD, forced_detectors
from errold.reduction import (FORCING_GADGET_EDGES, GADGET_INTERNAL, GADGET_BOUNDARY,
                              CnfFormula, parse_dimacs_cnf, serialize_dimacs_cnf,
                              build_instance, validate_gadgets, sat_brute_force,
                              encode_assignment, decode_assignment,
                              find_detector_set_within_budget, roundtrip_check,
                              ResourceLimit)

FIG6 = CnfFormula(4, ((-1, -2, 3), (1, 2, -4), (1, -3, 4)))


def random_formula(rng, n_vars, m):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n_vars, tuple(clauses))


def exhaustive_small_family():
    """All 8 single clauses over variables {1,2,3} and all 28 distinct pairs."""
    clauses = [tuple(s * v for s, v in zip(signs, (1, 2, 3)))
               for signs in itertools.product((1, -1), repeat=3)]
    family = [CnfFormula(3, (c,)) for c in clauses]
    family += [CnfFormula(3, pair) for pair in itertools.combinations(clauses, 2)]
    return family


# -- the forcing gadget -----------------------------------------------------------

def test_gadget_shape():
    g = Graph(7, FORCING_GADGET_EDGES)
    assert g.m == 12
    assert all(g.degree(v) == 3 for v in GADGET_INTERNAL)
    assert all(g.degree(v) == 4 for v in GADGET_BOUNDARY)
    # all pairs 3-distinguished and all vertices 3-dominated with S = V
    assert verify(g, range(7), ERR_OLD).ok
    # every vertex neighbours a degree-3 vertex, so all 7 are forced
    assert forced_detectors(g) == set(range(7))
    # the clause attachment pair shares neighbours only inside the boundary
    common = set(g.neighbors(5)) & set(g.neighbors(6))
    assert common <= set(GADGET_BOUNDARY)


# -- DIMACS parsing -----------------------------------------------------------------

def test_parse_dimacs_basic():
    f = parse_dimacs_cnf("c comment\np cnf 3 1\n1 -2 3 0\n")
    assert f.num_variables == 3 and f.num_clauses == 1
    assert f.clauses == ((1, -2, 3),)


def test_parse_dimacs_errors():
    with pytest.raises(ValueError, match="repeats"):
        parse_dimacs_cnf("p cnf 2 1\n1 1 2 0\n")
    with pytest.raises(ValueError, match="expected 3"):
        parse_dimacs_cnf("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ParseError, match="declares"):
        parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ParseError, match="problem line"):
        parse_dimacs_cnf("1 2 3 0\n")
    with pytest.raises(ParseError, match="unterminated"):
        parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")
    # the problem line is at fault, not the graph or clause list built from it
    with pytest.raises(ParseError, match="^line 2: negative count in problem line 'p cnf -3 0'$"):
        parse_dimacs_cnf("c header below\np cnf -3 0\n")
    with pytest.raises(ParseError, match="^line 1: negative count in problem line 'p cnf 3 -1'$"):
        parse_dimacs_cnf("p cnf 3 -1\n")
    with pytest.raises(ValueError, match="outside"):
        CnfFormula(2, ((1, 2, 3),))


def test_parse_dimacs_rejects_integers_int_alone_would_read():
    with pytest.raises(ParseError, match="^line 1: bad counts in problem line$"):
        parse_dimacs_cnf("p cnf 3 1_0\n")
    with pytest.raises(ParseError, match=r"^line 2: bad literal '-\u0662'$"):
        parse_dimacs_cnf("p cnf 3 1\n1 -\u0662 3 0\n")
    with pytest.raises(ParseError, match="^line 2: bad literal '2_0'$"):
        parse_dimacs_cnf("p cnf 3 1\n1 2_0 3 0\n")
    assert parse_dimacs_cnf("c \u00e9\np cnf 3 1\n1 -2 3 0\n").clauses == ((1, -2, 3),)


def test_dimacs_roundtrip():
    text = serialize_dimacs_cnf(FIG6)
    assert parse_dimacs_cnf(text) == FIG6


# -- instance construction -------------------------------------------------------------

def test_figure_six_counts():
    inst = build_instance(FIG6)
    assert inst.graph.n == 124
    assert inst.graph.m == 255
    assert inst.k == 109


def test_count_identities():
    cases = [(CnfFormula(3, ((1, -2, 3),)), 83, 170, 73),
             (CnfFormula(4, ((1, 2, 3), (-2, -3, -4))), 116, 238, 102)]
    for f, n, m, k in cases:
        inst = build_instance(f)
        assert (inst.graph.n, inst.graph.m, inst.k) == (n, m, k)
    rng = random.Random(30)
    for _ in range(25):
        nv = rng.randint(3, 8)
        nc = rng.randint(0, 6)
        f = random_formula(rng, nv, nc)
        inst = build_instance(f)
        assert inst.graph.n == 25 * nv + 8 * nc
        assert inst.graph.m == 51 * nv + 17 * nc
        assert inst.k == 22 * nv + 7 * nc
        assert len(inst.forced) == 21 * nv + 7 * nc


def test_single_variable_block():
    """One variable, no clauses: the forced 21 vertices never suffice, one
    literal detector completes a valid set (exhaustive over the 4 free
    vertices)."""
    inst = build_instance(CnfFormula(1, ()))
    assert inst.graph.n == 25 and inst.graph.m == 51 and inst.k == 22
    forced = set(inst.forced)
    assert len(forced) == 21
    assert forced_detectors(inst.graph) == forced
    by_size = {}
    for r in range(5):
        for combo in itertools.combinations(inst.free, r):
            if verify(inst.graph, forced | set(combo), ERR_OLD).ok:
                by_size.setdefault(21 + r, combo)
    assert 21 not in by_size and 22 in by_size
    var = inst.variables[0]
    assert set(by_size[22]) <= {var.x, var.xbar}


def test_manifest_format():
    inst = build_instance(CnfFormula(3, ((1, -2, 3),)))
    lines = inst.manifest().splitlines()
    assert lines[0] == f"K {inst.k}"
    assert lines[1].startswith("forced ") and \
        len(lines[1].split()) == 1 + len(inst.forced)
    assert lines[2] == f"literal 1 {inst.variables[0].x} {inst.variables[0].xbar}"
    assert lines[5] == f"clause 1 {inst.clauses[0].y} {inst.clauses[0].anchor}"


def test_validate_gadgets_clean_and_tampered():
    inst = build_instance(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))))
    assert validate_gadgets(inst).ok
    # drop one gadget edge: the forcing analysis must flag it
    victim = sorted(inst.graph.edges)[0]
    tampered_graph = Graph(inst.graph.n,
                           [e for e in inst.graph.sorted_edges() if e != victim])
    import dataclasses
    tampered = dataclasses.replace(inst, graph=tampered_graph)
    report = validate_gadgets(tampered)
    assert not report.ok and report.defects


def test_gadget_isolation():
    """Cutting the clause-to-literal edges leaves blocks whose forcing
    analysis is unchanged."""
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
    inst = build_instance(f)
    cross = set()
    for j, cl in enumerate(inst.clauses):
        for lit in f.clauses[j]:
            lv = inst.literal_vertex(lit)
            cross.add((min(cl.y, lv), max(cl.y, lv)))
    cut = Graph(inst.graph.n,
                [e for e in inst.graph.sorted_edges() if e not in cross])
    assert forced_detectors(cut) == set(inst.forced)
    # each variable block, taken alone, still forces its 21 designated vertices
    solo = build_instance(CnfFormula(1, ()))
    assert forced_detectors(solo.graph) == set(solo.forced)


# -- SAT oracle --------------------------------------------------------------------------

def test_sat_brute_force():
    sat, a = sat_brute_force(CnfFormula(3, ((1, 2, 3),)))
    assert sat and CnfFormula(3, ((1, 2, 3),)).satisfied_by(a)
    all8 = tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                 for signs in itertools.product((1, -1), repeat=3))
    sat, a = sat_brute_force(CnfFormula(3, all8))
    assert not sat and a is None
    sat, a = sat_brute_force(FIG6)
    assert sat and FIG6.satisfied_by(a)


def test_sat_brute_force_matches_the_truth_table():
    # the first assignment, in bit order, that satisfied_by accepts
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 9)
        f = random_formula(rng, n, rng.randint(1, 5 * n))
        table = ({v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
                 for bits in range(1 << n))
        first = next((a for a in table if f.satisfied_by(a)), None)
        assert sat_brute_force(f) == (first is not None, first)


def test_sat_brute_force_cap():
    f = random_formula(random.Random(0), 26, 1)
    with pytest.raises(ResourceLimit):
        sat_brute_force(f)


# -- encode / decode ------------------------------------------------------------------------

def test_encode_decode_roundtrip():
    inst = build_instance(FIG6)
    sat, a = sat_brute_force(FIG6)
    s = encode_assignment(inst, a)
    assert len(s) == inst.k
    assert verify(inst.graph, s, ERR_OLD).ok
    assert decode_assignment(inst, s) == a
    assert FIG6.satisfied_by(decode_assignment(inst, s))


def test_encode_respects_satisfaction():
    """Encoded sets are valid exactly for satisfying assignments."""
    f = CnfFormula(3, ((1, 2, 3), (-1, -2, 3)))
    inst = build_instance(f)
    for bits in range(8):
        a = {v: bool(bits >> (v - 1) & 1) for v in (1, 2, 3)}
        s = encode_assignment(inst, a)
        assert verify(inst.graph, s, ERR_OLD).ok == f.satisfied_by(a)


def test_decode_rejects_bad_sets():
    inst = build_instance(CnfFormula(3, ((1, 2, 3),)))
    with pytest.raises(ValueError, match="not a valid"):
        decode_assignment(inst, set(inst.forced))
    sat, a = sat_brute_force(inst.formula)
    s = encode_assignment(inst, a)
    with pytest.raises(ValueError, match="> K"):
        decode_assignment(inst, s | set(inst.free))
    with pytest.raises(ValueError, match="unknown vertices"):
        decode_assignment(inst, {inst.graph.n + 5})


# -- round-trip equivalence ---------------------------------------------------------------------

def test_roundtrip_exhaustive_small_family():
    for f in exhaustive_small_family():
        assert roundtrip_check(f)


def test_roundtrip_explicit_cases():
    assert roundtrip_check(CnfFormula(3, ((1, 2, 3),)))
    assert roundtrip_check(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))))
    assert roundtrip_check(FIG6)


def test_roundtrip_unsat():
    all8 = tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                 for signs in itertools.product((1, -1), repeat=3))
    f = CnfFormula(3, all8)
    assert roundtrip_check(f)
    inst = build_instance(f)
    assert find_detector_set_within_budget(inst) is None


def test_roundtrip_at_a_hundred_free_vertices():
    # N = 12, M = 52: 716 vertices, 100 of them free, near the satisfiability
    # threshold so that both answers occur
    rng = random.Random(7)
    outcomes = set()
    for _ in range(6):
        check = roundtrip_check(random_formula(rng, 12, 52))
        assert check
        outcomes.add(check.satisfiable)
    assert outcomes == {True, False}


def test_roundtrip_size_cap():
    f = random_formula(random.Random(1), 26, 1)
    with pytest.raises(ResourceLimit):
        roundtrip_check(f)


def test_restricted_search_minimality():
    """Any found set is exactly forced + one literal per variable."""
    rng = random.Random(31)
    for _ in range(6):
        f = random_formula(rng, 3, rng.randint(1, 4))
        inst = build_instance(f)
        s = find_detector_set_within_budget(inst)
        sat, _ = sat_brute_force(f)
        assert (s is not None) == sat
        if s is not None:
            assert len(s) == inst.k
            assert set(inst.forced) <= s
            for var in inst.variables:
                assert len(s & {var.x, var.xbar}) == 1
            assert f.satisfied_by(decode_assignment(inst, s))
