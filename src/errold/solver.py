"""Exact minimum detector-set computation for any detection kind.

Two strategies are offered: an exhaustive search that tries subsets in
size-then-lexicographic order (the oracle), and a branch-and-bound search.
One iterative branch-and-bound core answers both the minimisation and the
decision "is there a set of size <= k?".

The branch-and-bound search works on requirements compiled once per search
from detection.requirements: at least `need` detectors in a vertex mask
(N(v) for domination, N(u) symdiff N(v) for a symmetric pair), or, for a
one-sided pair, at least `need` in N(u) - N(v) or in N(v) - N(u).  The
root starts with the neighbours of every vertex of degree at most
min_domination chosen (the paper's degree rule,
detection.forced_detectors_for_kind), and requirements those neighbours
meet are never built.  A node is a pair of masks, the chosen and the
undecided vertices; the rest are excluded.  Dominator sets only grow when
detectors are added, so a requirement with fewer than `need` vertices in
chosen | undecided fails for every completion.  At each node the search

  * propagates: it prunes the node if a requirement fails that way, and
    chooses every undecided vertex of a requirement that has exactly
    `need` left;
  * bounds: |chosen| plus the deficits of unmet requirements with pairwise
    disjoint undecided supports is a lower bound on every completion;
  * branches on a vertex of the unmet requirement with the least slack
    (undecided vertices beyond those it still needs), taking it before
    skipping it.

The chosen set only grows down a path, so a requirement met at a node is
met below it.  Each node scans only the requirement lists its parent
carried, in their order, and hands its children the ones it leaves unmet
if they are at least a quarter shorter, else its parent's lists; so the
lists held along a path sum to at most four times the root's.  The root,
examined on the compiled lists, and every skip child propagate the lists
they are handed: a met requirement fails nothing and forces nothing, so no
per-vertex index of requirements is needed.  A take child leaves
chosen | undecided as its parent left it and needs no propagation.  A node
with no unmet requirement is a leaf, and its chosen set is valid.  The
root's undecided vertices are all those it does not choose, so its
propagation fails iff S = V(G) does: the search's first node detects an
infeasible graph."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, bits_to_list
from .detection import DetectionKind, requirements, verify


class SearchBudgetExceeded(Exception):
    """Node budget ran out; carries the best bound found so far."""

    reason = "node budget exhausted"

    def __init__(self, nodes_explored: int, best_size: int | None,
                 best_set: set[int] | None):
        self.nodes_explored = nodes_explored
        self.best_size = best_size
        self.best_set = best_set
        super().__init__(
            f"{self.reason} after {nodes_explored} nodes"
            + (f"; best detector set so far has size {best_size}"
               if best_size is not None else "; no detector set found yet"))


class SearchInterrupted(SearchBudgetExceeded):
    """The search was interrupted (Ctrl-C); carries the best bound so far."""

    reason = "interrupted"


@dataclass
class SolveResult:
    status: str                       # "optimal" | "infeasible"
    optimum: int | None = None
    witness: set[int] | None = None
    nodes_explored: int = 0


def minimum_detector_set(g: Graph, kind: DetectionKind,
                         strategy: str = "branch-and-bound",
                         budget: int | None = None) -> SolveResult:
    """Minimum-cardinality detector set of the given kind, or infeasible.

    Infeasibility is decided up front on S = V(G), which is conclusive by
    monotonicity.  The search's root would find it too, but only after
    compiling every requirement, while verify stops at the first one that
    fails; so the check stays as the fast exit for an infeasible graph.
    perfbench/selftest.py also reads the solver.verify it calls."""
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be non-negative, got {budget}")
    if not verify(g, g.full_mask(), kind).ok:
        return SolveResult(status="infeasible", nodes_explored=1)
    if strategy == "exhaustive":
        return _solve_exhaustive(g, kind, budget)
    if strategy == "branch-and-bound":
        best, nodes = _search(g, kind, budget=budget)
        if best is None:
            return SolveResult("infeasible", nodes_explored=nodes)
        return SolveResult("optimal", best.bit_count(),
                           set(bits_to_list(best)), nodes)
    raise ValueError(f"unknown strategy {strategy!r}")


def detector_set_within(g: Graph, kind: DetectionKind, k: int) -> set[int] | None:
    """The first detector set of size <= k in branch order, or None.

    The search stops at its first hit, so the set need not be minimum."""
    if k < 0:
        raise ValueError(f"threshold must be non-negative, got {k}")
    best, _ = _search(g, kind, limit=k + 1)
    return None if best is None else set(bits_to_list(best))


def _solve_exhaustive(g: Graph, kind: DetectionKind,
                      budget: int | None) -> SolveResult:
    nodes = 0
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded(nodes - 1, None, None)
            if verify(g, combo, kind).ok:
                return SolveResult("optimal", k, set(combo), nodes)
    # unreachable: feasibility was established on S = V
    raise AssertionError("exhaustive search found nothing on a feasible graph")


# -- branch and bound ----------------------------------------------------------


def _compile(g: Graph, kind: DetectionKind):
    """((plain, either), forced): the requirement lists and the root's
    chosen set.

    plain holds (mask, need); either holds the one-sided pairs (a, b,
    need), each also relaxed into plain as (a | b, need).  forced is N(w)
    for every w of degree at most min_domination (the degree rule), and
    requirements those vertices meet are never built: they can neither
    fail nor force anything new."""
    forced = 0
    for row in g.adj:
        if row.bit_count() <= kind.min_domination:
            forced |= row
    plain, either = [], []
    for _, _, masks, need in requirements(g, kind, met=forced):
        if len(masks) == 2:
            a, b = masks
            either.append((a, b, need))
            plain.append((a | b, need))
        else:
            plain.append((masks[0], need))
    return (plain, either), forced


def _propagate(plain, either, chosen: int, undecided: int):
    """(chosen, undecided) with every vertex the given requirements force
    chosen, or None if one of them fails for every completion.

    A one-sided pair with one side short is a plain requirement on the
    other side.  Forcing leaves avail = chosen | undecided alone, so one
    pass reaches the fixpoint, and only requirements that lose a vertex of
    avail can change."""
    avail = chosen | undecided
    forced = 0
    for mask, need in plain:
        got = (mask & avail).bit_count()
        if got <= need:
            if got < need:
                return None
            forced |= mask
    for a, b, need in either:
        got_a, got_b = (a & avail).bit_count(), (b & avail).bit_count()
        if got_a < need:
            if got_b < need:
                return None
            if got_b == need:
                forced |= b
        elif got_b < need and got_a == need:
            forced |= a
    forced &= undecided
    return chosen | forced, undecided & ~forced


def _examine(reqs, chosen: int, undecided: int, propagate: bool,
             bound: int | None):
    """Propagate, bound and branch at a node.

    reqs is the (plain, either) its parent carried, or the compiled lists
    at the root.  The root and every skip child are propagated over reqs;
    a take child is not (`propagate` false), since it leaves avail as its
    parent left it.  Returns None if the node is pruned, else ((chosen,
    undecided, v), carried) after propagation, with v the least undecided
    vertex of the unmet requirement of least slack (the first on ties), or
    None at a leaf, and carried the lists for its children.  The packing
    bound takes unmet requirements greedily in order."""
    plain, either = reqs
    if propagate:
        node = _propagate(plain, either, chosen, undecided)
        if node is None:
            return None
        chosen, undecided = node
    size = chosen.bit_count()
    if bound is not None and size >= bound:
        return None
    used = extra = 0
    branch, least = 0, None
    unmet_plain, unmet_either = [], []
    for req in plain:
        mask, need = req
        deficit = need - (mask & chosen).bit_count()
        if deficit > 0:
            unmet_plain.append(req)
            free = mask & undecided
            if not free & used:
                used |= free
                extra += deficit
            slack = free.bit_count() - deficit
            if least is None or slack < least:
                branch, least = free, slack
    for req in either:
        a, b, need = req
        if max((a & chosen).bit_count(), (b & chosen).bit_count()) < need:
            unmet_either.append(req)
            for mask in (a, b):
                slack = (mask & (chosen | undecided)).bit_count() - need
                if slack >= 0 and (least is None or slack < least):
                    branch, least = mask & undecided, slack
    if bound is not None and size + extra >= bound:
        return None
    if not branch:
        return (chosen, undecided, None), reqs
    if 4 * (len(unmet_plain) + len(unmet_either)) <= 3 * (len(plain) + len(either)):
        reqs = unmet_plain, unmet_either
    return (chosen, undecided, (branch & -branch).bit_length() - 1), reqs


def _search(g: Graph, kind: DetectionKind, limit: int | None = None,
            budget: int | None = None) -> tuple[int | None, int]:
    """(best set as a mask or None, nodes explored) of the core run from
    the root, a node like any other: it counts against `budget`, and a root
    whose propagation fails is one node."""
    reqs, forced = _compile(g, kind)
    return _branch_and_bound((reqs, forced, g.full_mask() & ~forced, True),
                             limit, budget)


def _branch_and_bound(root, limit: int | None = None,
                      budget: int | None = None) -> tuple[int | None, int]:
    """Depth-first search from `root`, take before skip.

    Without a `limit` this minimises: after a hit only strictly smaller sets
    are hits.  With one it decides: only sets smaller than `limit` are hits,
    and the search stops at its first hit.  Returns (best set as a mask or
    None, nodes explored).  The explicit stack of nodes, each the arguments
    of _examine but the bound, keeps the depth free of the recursion
    limit.  An interrupt becomes SearchInterrupted."""
    bound = limit
    best: int | None = None
    nodes = 0
    stack = [root]
    try:
        while stack:
            node = stack.pop()
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded(nodes - 1, *_best(best))
            step = _examine(*node, bound)
            if step is None:
                continue
            (chosen, undecided, v), carried = step
            if v is None:
                best = chosen
                bound = best.bit_count()
                if limit is not None:
                    break
                continue
            bit = 1 << v
            stack.append((carried, chosen, undecided & ~bit, True))
            stack.append((carried, chosen | bit, undecided & ~bit, False))
    except KeyboardInterrupt:
        raise SearchInterrupted(nodes, *_best(best)) from None
    return best, nodes


def _best(best: int | None) -> tuple[int | None, set[int] | None]:
    if best is None:
        return None, None
    return best.bit_count(), set(bits_to_list(best))
