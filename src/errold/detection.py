"""Domination and distinguishing predicates for detection systems.

A detector set S watches the open neighbourhoods of its vertices.  The four
supported variants are parameterised by a minimum domination level d, a
distinguishing threshold t, and whether pairs are separated by the symmetric
difference of their dominator sets or by a one-sided difference:

    OLD      d=1, t=1, symmetric
    RED:OLD  d=2, t=2, symmetric
    DET:OLD  d=2, t=2, one-sided
    ERR:OLD  d=3, t=3, symmetric

All checks are pure functions of an immutable Graph and a vertex set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, ParseError, bits_to_list, int_reader, mask_of

SYMMETRIC = "symmetric"
ONE_SIDED = "one-sided"


@dataclass(frozen=True)
class DetectionKind:
    name: str
    min_domination: int
    distinguish_threshold: int
    mode: str

    def __str__(self):
        return self.name


OLD = DetectionKind("OLD", 1, 1, SYMMETRIC)
RED_OLD = DetectionKind("RED:OLD", 2, 2, SYMMETRIC)
DET_OLD = DetectionKind("DET:OLD", 2, 2, ONE_SIDED)
ERR_OLD = DetectionKind("ERR:OLD", 3, 3, SYMMETRIC)

ALL_KINDS = (OLD, RED_OLD, DET_OLD, ERR_OLD)

KIND_FLAGS = {"old": OLD, "redold": RED_OLD, "detold": DET_OLD, "err": ERR_OLD}


def kind_from_flag(flag: str) -> DetectionKind:
    """Map a CLI flag value (old|redold|detold|err) to its DetectionKind."""
    try:
        return KIND_FLAGS[flag]
    except KeyError:
        raise ValueError(f"unknown detection kind {flag!r}; expected one of "
                         f"{sorted(KIND_FLAGS)}") from None


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification.  Exactly one witness field is set on
    failure: either (vertex, value) for an under-dominated vertex or
    (pair, value) for an under-distinguished pair."""
    ok: bool
    vertex: int | None = None
    pair: tuple[int, int] | None = None
    value: int | None = None

    def __bool__(self):
        return self.ok


def dominators(g: Graph, detectors, v: int) -> set[int]:
    """N(v) intersected with the detector set."""
    return set(bits_to_list(g.adj[v] & _as_mask(detectors)))


def domination_profile(g: Graph, detectors) -> list[tuple[set[int], int]]:
    """Per vertex: (dominator set, domination number)."""
    smask = _as_mask(detectors)
    out = []
    for v in range(g.n):
        m = g.adj[v] & smask
        out.append((set(bits_to_list(m)), m.bit_count()))
    return out


def distinguishing_value(g: Graph, detectors, u: int, v: int,
                         mode: str = SYMMETRIC) -> int:
    """Symmetric mode: |N_S(u) symdiff N_S(v)|.  One-sided mode:
    max(|N_S(u) - N_S(v)|, |N_S(v) - N_S(u)|)."""
    if u == v:
        raise ValueError("distinguishing value is defined for distinct vertices")
    smask = _as_mask(detectors)
    du = g.adj[u] & smask
    dv = g.adj[v] & smask
    if mode == SYMMETRIC:
        return (du ^ dv).bit_count()
    if mode == ONE_SIDED:
        return max((du & ~dv).bit_count(), (dv & ~du).bit_count())
    raise ValueError(f"unknown mode {mode!r}")


def verify(g: Graph, detectors, kind: DetectionKind,
           strategy: str = "pruned") -> Verdict:
    """Check whether `detectors` is a valid set of the given kind.

    The verdict names the first requirement (see requirements) the set
    fails, with the most detectors any of its masks holds.  The 'pruned'
    strategy tests the pairs at distance <= 2; the 'naive' strategy scans
    all pairs and serves as the oracle."""
    if strategy not in ("pruned", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pairs = itertools.combinations(range(g.n), 2) if strategy == "naive" else None
    smask = _as_mask(detectors)
    for vertex, pair, masks, _ in requirements(g, kind, pairs, smask):
        return Verdict(False, vertex, pair,
                       max((mask & smask).bit_count() for mask in masks))
    return Verdict(True)


def requirements(g: Graph, kind: DetectionKind, pairs=None, met=0):
    """The requirements of `kind` on g that the detector mask `met` leaves
    unmet, lazily and in verification order, as (vertex, pair, masks, need):
    the detectors in at least one of `masks` must number `need` or more.
    With met = 0 that is every requirement.

    Vertex v needs min_domination detectors in N(v).  A pair (u, v) needs
    distinguish_threshold detectors in N(u) symdiff N(v) when the kind is
    symmetric, and that many in N(u) - N(v) or in N(v) - N(u) when it is
    one-sided.  Vertices come first in increasing order, then `pairs` in
    order; `pairs` defaults to the pairs at distance <= 2, walked from the
    rows as they are needed: once domination holds, a pair at distance >= 3
    has disjoint dominator sets whose difference is already
    dom(u) + dom(v) >= 2d >= t for every supported kind.  A requirement
    that `met` meets is skipped before its masks are built into a tuple."""
    adj = g.adj
    d, t = kind.min_domination, kind.distinguish_threshold
    for v, row in enumerate(adj):
        if (row & met).bit_count() < d:
            yield v, None, (row,), d
    if pairs is None:
        pairs = g.iter_pairs_within_distance_two()
    one_sided = kind.mode == ONE_SIDED
    for u, v in pairs:
        a, b = adj[u], adj[v]
        if one_sided:
            a, b = a & ~b, b & ~a
            if (a & met).bit_count() < t and (b & met).bit_count() < t:
                yield None, (u, v), (a, b), t
        elif ((a ^ b) & met).bit_count() < t:
            yield None, (u, v), (a ^ b,), t


def is_open_dominating(g: Graph, detectors) -> bool:
    smask = _as_mask(detectors)
    return all(g.adj[v] & smask for v in range(g.n))


def verify_red_old_by_removal(g: Graph, detectors) -> bool:
    """Definitional RED:OLD oracle: S is open-dominating and S - {v} is an
    OLD set for every v in S.  The open-domination clause makes the empty
    set fail on nonempty graphs, matching the 2-dominated/2-distinguished
    characterisation."""
    smask = _as_mask(detectors)
    if not is_open_dominating(g, smask):
        return False
    for v in bits_to_list(smask):
        if not verify(g, smask & ~(1 << v), OLD).ok:
            return False
    return True


@dataclass(frozen=True)
class ExistenceResult:
    """Outcome of the ERR:OLD existence test.  On failure exactly one of
    the witness fields is set: a vertex of degree < 3, or a 4-cycle with an
    opposite pair whose open neighbourhoods differ in fewer than 3 places."""
    exists: bool
    low_degree_vertex: int | None = None
    cycle: tuple[int, int, int, int] | None = None
    pair: tuple[int, int] | None = None
    value: int | None = None

    def __bool__(self):
        return self.exists


def exists_err_old(g: Graph) -> ExistenceResult:
    """A graph permits an ERR:OLD set iff its minimum degree is at least 3
    and, for every 4-cycle, both opposite pairs have neighbourhood symmetric
    difference at least 3.

    The opposite pairs of 4-cycles are exactly the pairs with at least two
    common neighbours, all at distance <= 2, so only those pairs are tested.
    The failure witness is the least canonical 4-cycle (as in
    Graph.four_cycles) through a failing opposite pair, reported with its
    pair (a, c) if that fails, else (b, d)."""
    for v in range(g.n):
        if g.degree(v) < 3:
            return ExistenceResult(False, low_degree_vertex=v)
    adj = g.adj
    cycle = None
    for u, v in g.pairs_within_distance_two():
        common = adj[u] & adj[v]
        if common & (common - 1) and (adj[u] ^ adj[v]).bit_count() < 3:
            # the least cycle with opposite pair {u, v} uses the two least
            # common neighbours x < y
            x, y = bits_to_list(common)[:2]
            c = (x, u, y, v) if x < u else (u, x, v, y)
            if cycle is None or c < cycle:
                cycle = c
    if cycle is None:
        return ExistenceResult(True)
    a, b, c, d = cycle
    u, v = (a, c) if (adj[a] ^ adj[c]).bit_count() < 3 else (b, d)
    return ExistenceResult(False, cycle=cycle, pair=(u, v),
                           value=(adj[u] ^ adj[v]).bit_count())


def forced_detectors(g: Graph) -> set[int]:
    """Vertices that belong to every ERR:OLD set: any vertex with a neighbour
    of degree exactly 3 (that neighbour needs all of its 3 neighbours as
    dominators)."""
    return forced_detectors_for_kind(g, ERR_OLD)


def forced_detectors_for_kind(g: Graph, kind: DetectionKind) -> set[int]:
    """Degree-based forcing generalised to any kind: a vertex w with degree
    exactly d needs every neighbour as a dominator, so N(w) is forced.
    (Vertices of degree < d make the instance infeasible outright.)

    This is the paper's rule.  The solver's root starts from the same rule
    (solver._compile, which also takes N(w) for degree below d) before it
    propagates; this function is the oracle the tests hold that mask to."""
    d = kind.min_domination
    degd = mask_of(v for v in range(g.n) if g.degree(v) == d)
    return {v for v in range(g.n) if g.adj[v] & degd}


# -- detector-set file format --------------------------------------------------
#
# Whitespace-separated decimal vertex ids; '#' starts a comment line.


def parse_detector_set(text: str, g: Graph) -> set[int]:
    out: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        to_int = int_reader(line)
        for tok in line.split():
            try:
                v = to_int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex id {tok!r}") from None
            if not 0 <= v < g.n:
                raise ParseError(f"line {lineno}: vertex {v} outside 0..{g.n - 1}")
            out.add(v)
    return out


def serialize_detector_set(detectors) -> str:
    vs = sorted(detectors if not isinstance(detectors, int) else bits_to_list(detectors))
    return " ".join(str(v) for v in vs) + "\n"


def _as_mask(detectors) -> int:
    if isinstance(detectors, int):
        return detectors
    return mask_of(detectors)
