"""Executable transformation from 3-SAT to the error-correcting detector-set
decision problem, with gadget validation and a round-trip equivalence check:
a brute-force SAT oracle against the budgeted decision "is there an ERR:OLD
set of size <= K?", which the solver's branch-and-bound core answers.

Construction overview
---------------------
Everything is assembled from one frozen 7-vertex, 12-edge forcing gadget
(FORCING_GADGET_EDGES below).  Its four degree-3 vertices 0..3 never receive
edges to the rest of the instance, so each is a genuine degree-3 vertex of
the final graph and every gadget vertex has one as a neighbour: all seven
vertices land in every valid detector set by the degree-3 forcing rule.  The
three degree-4 vertices 4..6 are the boundary and carry the attachment
edges.

A variable block has 25 vertices: three gadget copies (21 forced vertices)
plus the literal vertices x, xbar and two tension vertices p, q.  Each
literal is tied to one boundary slot of each copy, p and q see exactly two
forced vertices each, and p, q are adjacent to both literals, so
3-dominating p and q requires a literal in the detector set.  51 edges:
3 x 12 in the copies, 10 boundary attachments, and the 5 edges among
{p, q, x, xbar}.

A clause block has 8 vertices: one gadget copy plus the clause vertex y,
which is adjacent to boundary vertices 5 and 6 of its copy and to its three
literal vertices.  y has exactly two forced neighbours, so it is
3-dominated precisely when at least one of its literals is a detector.
17 edges: 12 + 2 + the 3 cross edges.

Totals for N variables and M clauses: 25N + 8M vertices, 51N + 17M edges,
forced set 21N + 7M, and budget K = 22N + 7M.  Any detector set within the
budget must therefore consist of the forced vertices plus exactly one
literal per variable, and it is valid iff the induced truth assignment
satisfies every clause."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, ParseError, ResourceLimit, int_reader
from .detection import ERR_OLD, verify, forced_detectors
from .solver import detector_set_within

# Recovered by exhaustive search: one of the two minimum graphs supporting an
# error-correcting detector set (7 vertices, 12 edges).  Vertices 0..3 have
# degree 3, vertices 4..6 degree 4; every vertex neighbours a degree-3
# vertex; all 21 vertex pairs have neighbourhood symmetric difference >= 3;
# boundary pair {5, 6} has its single common neighbour (4) in the boundary.
# These facts are asserted by the test suite.
FORCING_GADGET_EDGES = (
    (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 6),
    (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6),
)
GADGET_SIZE = 7
GADGET_INTERNAL = (0, 1, 2, 3)
GADGET_BOUNDARY = (4, 5, 6)
# boundary roles within a variable block's copies
_SLOT_X, _SLOT_XBAR, _SLOT_PQ = 4, 5, 6
# clause vertex attaches to these boundary slots of its copy
_Y_ATTACH = (5, 6)

VARIABLE_BLOCK = 25
CLAUSE_BLOCK = 8


@dataclass(frozen=True)
class CnfFormula:
    """3-SAT instance: clauses are triples of DIMACS-style signed literals
    over variables 1..num_variables, each clause using three distinct
    variables."""
    num_variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for idx, clause in enumerate(self.clauses, start=1):
            if len(clause) != 3:
                raise ValueError(f"clause {idx} has {len(clause)} literals, expected 3")
            vs = [abs(l) for l in clause]
            if len(set(vs)) != 3:
                raise ValueError(f"clause {idx} repeats a variable")
            for l in clause:
                if l == 0 or not 1 <= abs(l) <= self.num_variables:
                    raise ValueError(f"clause {idx} literal {l} outside 1..{self.num_variables}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def satisfied_by(self, assignment: dict[int, bool]) -> bool:
        return all(any((l > 0) == assignment[abs(l)] for l in clause)
                   for clause in self.clauses)


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Strict DIMACS CNF with exactly three distinct-variable literals per
    clause; the header clause count must match."""
    num_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        to_int = int_reader(line)
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed problem line {line!r}")
            try:
                num_vars, declared_clauses = to_int(parts[2]), to_int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad counts in problem line") from None
            if num_vars < 0 or declared_clauses < 0:
                raise ParseError(f"line {lineno}: negative count in problem line {line!r}")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                tokens.append(to_int(tok))
            except ValueError:
                raise ParseError(f"line {lineno}: bad literal {tok!r}") from None
    if num_vars is None:
        raise ParseError("missing problem line")
    clauses = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != declared_clauses:
        raise ParseError(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def serialize_dimacs_cnf(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_variables} {formula.num_clauses}"]
    lines.extend(" ".join(str(l) for l in clause) + " 0" for clause in formula.clauses)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VariableLayout:
    x: int
    xbar: int
    p: int
    q: int


@dataclass(frozen=True)
class ClauseLayout:
    y: int
    anchor: int                # designated forced neighbour of y


@dataclass(frozen=True)
class ReductionInstance:
    formula: CnfFormula
    graph: Graph
    k: int
    variables: tuple[VariableLayout, ...]
    clauses: tuple[ClauseLayout, ...]

    @property
    def free(self) -> tuple[int, ...]:
        """The x, xbar, p, q and y vertices, in increasing order."""
        return tuple([v for var in self.variables for v in (var.x, var.xbar, var.p, var.q)]
                     + [cl.y for cl in self.clauses])

    @property
    def forced(self) -> tuple[int, ...]:
        """The gadget vertices: the blocks tile 0..25N+8M-1, so every vertex
        there that is not free.  The range comes from the layout, not from
        the graph, which validate_gadgets may be handed tampered."""
        free = set(self.free)
        n = VARIABLE_BLOCK * len(self.variables) + CLAUSE_BLOCK * len(self.clauses)
        return tuple([v for v in range(n) if v not in free])

    def literal_vertex(self, literal: int) -> int:
        var = self.variables[abs(literal) - 1]
        return var.x if literal > 0 else var.xbar

    def manifest(self) -> str:
        lines = [f"K {self.k}",
                 "forced " + " ".join(str(v) for v in self.forced)]
        for i, var in enumerate(self.variables, start=1):
            lines.append(f"literal {i} {var.x} {var.xbar}")
        for j, cl in enumerate(self.clauses, start=1):
            lines.append(f"clause {j} {cl.y} {cl.anchor}")
        return "\n".join(lines) + "\n"


def build_instance(formula: CnfFormula) -> ReductionInstance:
    """Compile a formula into a decision instance (graph, K)."""
    n_vars, n_clauses = formula.num_variables, formula.num_clauses
    edges: list[tuple[int, int]] = []
    variables: list[VariableLayout] = []

    def add_gadget(base: int):
        edges.extend((base + u, base + v) for u, v in FORCING_GADGET_EDGES)

    for i in range(n_vars):
        base = VARIABLE_BLOCK * i
        copies = [base, base + GADGET_SIZE, base + 2 * GADGET_SIZE]
        for c in copies:
            add_gadget(c)
        x, xbar, p, q = base + 21, base + 22, base + 23, base + 24
        edges.extend((x, c + _SLOT_X) for c in copies)
        edges.extend((xbar, c + _SLOT_XBAR) for c in copies)
        edges.append((p, copies[0] + _SLOT_PQ))
        edges.append((p, copies[1] + _SLOT_PQ))
        edges.append((q, copies[2] + _SLOT_PQ))
        edges.append((q, copies[0] + _SLOT_X))
        edges.extend([(p, x), (p, xbar), (q, x), (q, xbar), (x, xbar)])
        variables.append(VariableLayout(x, xbar, p, q))

    clauses: list[ClauseLayout] = []
    for j, clause in enumerate(formula.clauses):
        base = VARIABLE_BLOCK * n_vars + CLAUSE_BLOCK * j
        add_gadget(base)
        y = base + 7
        edges.extend((y, base + s) for s in _Y_ATTACH)
        for literal in clause:
            var = variables[abs(literal) - 1]
            edges.append((y, var.x if literal > 0 else var.xbar))
        clauses.append(ClauseLayout(y, base + _Y_ATTACH[0]))

    g = Graph(VARIABLE_BLOCK * n_vars + CLAUSE_BLOCK * n_clauses, edges)
    k = 22 * n_vars + 7 * n_clauses
    return ReductionInstance(formula, g, k, tuple(variables), tuple(clauses))


# -- gadget validation ----------------------------------------------------------


@dataclass
class GadgetReport:
    ok: bool
    defects: list[str]


def validate_gadgets(inst: ReductionInstance) -> GadgetReport:
    """Recompute the structural guarantees from the graph itself, so that a
    tampered instance is reported rather than trusted.

    (a) the designated 21N + 7M vertices, and only they, are degree-3-forced;
    (b) each p_i and q_i has exactly two forced neighbours and both literal
        vertices, so 3-domination needs a literal detector;
    (c) each y_j has exactly two forced neighbours plus its three literal
        vertices, so it is 3-dominated iff a literal neighbour is a detector;
    plus the vertex/edge/budget count identities."""
    g = inst.graph
    defects: list[str] = []
    n_vars, n_clauses = inst.formula.num_variables, inst.formula.num_clauses

    if g.n != 25 * n_vars + 8 * n_clauses:
        defects.append(f"instance: vertex count {g.n} != 25N+8M")
    if g.m != 51 * n_vars + 17 * n_clauses:
        defects.append(f"instance: edge count {g.m} != 51N+17M")
    if inst.k != 22 * n_vars + 7 * n_clauses:
        defects.append(f"instance: K {inst.k} != 22N+7M")

    designated = set(inst.forced)
    actually_forced = forced_detectors(g)
    if not designated <= actually_forced:
        missing = sorted(designated - actually_forced)
        defects.append(f"forcing: designated vertices {missing} not degree-3-forced")
    extras = sorted(actually_forced - designated)
    if extras:
        defects.append(f"forcing: non-designated vertices {extras} are forced")

    for i, var in enumerate(inst.variables, start=1):
        lits = {var.x, var.xbar}
        for name, t in (("p", var.p), ("q", var.q)):
            nbrs = set(g.neighbors(t))
            if len(nbrs & designated) != 2 or nbrs - designated != lits:
                defects.append(f"F_{i}: {name} neighbourhood breaks the literal"
                               f" requirement (neighbours {sorted(nbrs)})")
        for name, lit in (("x", var.x), ("xbar", var.xbar)):
            forced_nbrs = set(g.neighbors(lit)) & designated
            if len(forced_nbrs) != 3:
                defects.append(f"F_{i}: literal {name} has {len(forced_nbrs)} forced"
                               " neighbours, needs 3 for domination when undetected")

    for j, cl in enumerate(inst.clauses, start=1):
        nbrs = set(g.neighbors(cl.y))
        forced_nbrs = nbrs & designated
        lit_vertices = {inst.literal_vertex(l) for l in inst.formula.clauses[j - 1]}
        if len(forced_nbrs) != 2:
            defects.append(f"H_{j}: y has {len(forced_nbrs)} forced neighbours, expected 2")
        if nbrs - designated != lit_vertices:
            defects.append(f"H_{j}: y's non-forced neighbours {sorted(nbrs - designated)}"
                           f" are not its literal vertices {sorted(lit_vertices)}")

    return GadgetReport(not defects, defects)


# -- SAT oracle and round-trip equivalence --------------------------------------

MAX_SAT_VARIABLES = 25


def _check_sat_size(formula: CnfFormula) -> None:
    if formula.num_variables > MAX_SAT_VARIABLES:
        raise ResourceLimit(f"brute-force SAT supports up to {MAX_SAT_VARIABLES} variables")


def sat_brute_force(formula: CnfFormula) -> tuple[bool, dict[int, bool] | None]:
    """Exhaustive truth-table satisfiability check: the first satisfying
    assignment in counting order, with bit v - 1 of the count as variable v."""
    n = formula.num_variables
    _check_sat_size(formula)
    # a clause holds iff bits set a positive variable or clear a negated one
    masks = [(sum(1 << (l - 1) for l in clause if l > 0),
              sum(1 << (-l - 1) for l in clause if l < 0))
             for clause in formula.clauses]
    for bits in range(1 << n):
        if all(bits & pos or ~bits & neg for pos, neg in masks):
            return True, {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
    return False, None


def encode_assignment(inst: ReductionInstance, assignment: dict[int, bool]) -> set[int]:
    """Detector set induced by a truth assignment: all forced vertices plus
    the vertex of each true literal."""
    s = set(inst.forced)
    for i, var in enumerate(inst.variables, start=1):
        s.add(var.x if assignment[i] else var.xbar)
    return s


def decode_assignment(inst: ReductionInstance, detector_set) -> dict[int, bool]:
    """Truth assignment read off a valid detector set of size <= K:
    variable i is true iff the x_i vertex is a detector."""
    s = set(detector_set)
    if not s <= set(range(inst.graph.n)):
        raise ValueError("detector set contains unknown vertices")
    if len(s) > inst.k:
        raise ValueError(f"detector set has size {len(s)} > K = {inst.k}")
    verdict = verify(inst.graph, s, ERR_OLD)
    if not verdict.ok:
        raise ValueError(f"not a valid error-correcting detector set: {verdict}")
    assignment = {}
    for i, var in enumerate(inst.variables, start=1):
        chosen = len(s & {var.x, var.xbar})
        if chosen != 1:
            raise ValueError(f"variable {i}: detector set fixes {chosen} literals, expected 1")
        assignment[i] = var.x in s
    return assignment


def find_detector_set_within_budget(inst: ReductionInstance) -> set[int] | None:
    """Budgeted decision on the compiled instance: the first ERR:OLD set of
    size <= K that the solver's branch-and-bound core finds, or None.

    The core's propagation, computed from the graph itself, forces the
    neighbourhoods of degree-3 vertices (on an untampered instance these are
    exactly the designated 21N + 7M vertices) and, at every node, whatever
    the tension and clause vertices leave no choice about; it starts with
    the size bound K + 1 and stops at its first hit.  Any hit has size
    exactly K: each variable's tension vertices need one of its literals."""
    return detector_set_within(inst.graph, ERR_OLD, inst.k)


@dataclass(frozen=True)
class RoundTrip:
    """Brute-force satisfiability and the budgeted detector-set decision on
    the compiled instance; true iff they agree."""
    satisfiable: bool
    found: bool
    k: int

    def __bool__(self):
        return self.satisfiable == self.found


def roundtrip_check(formula: CnfFormula) -> RoundTrip:
    """The SAT oracle's size limit is the only one, and it is checked before
    the instance is built or searched."""
    _check_sat_size(formula)
    inst = build_instance(formula)
    found = find_detector_set_within_budget(inst) is not None
    return RoundTrip(sat_brute_force(formula)[0], found, inst.k)
