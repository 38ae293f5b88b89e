"""Exact minimum detector-set computation for any detection kind.

Two strategies are offered: an exhaustive search that tries subsets in
size-then-lexicographic order (the oracle), and a branch-and-bound search
that fixes degree-forced detectors up front, branches on the remaining
vertices in descending-degree order, and prunes partial assignments that can
no longer dominate every vertex or distinguish every close pair even if all
undecided vertices become detectors.  One iterative branch-and-bound core
answers both the minimisation and the decision "is there a set of size
<= k?", serially or split over worker processes.

Feasibility, pruning and acceptance are one scan, detection.first_failure.
Dominator sets and their differences only grow when detectors are added, so
a requirement that fails against (chosen | undecided) fails for every
completion: a node is pruned iff that set fails, the graph is feasible iff
S = V(G) passes, and at a leaf, where nothing is undecided, the same test
has verified the chosen set."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, bits_to_list, mask_of
from .parallel import run_tasks, split_depth
from .detection import (
    DetectionKind, first_failure, verify, forced_detectors_for_kind,
)


class SearchBudgetExceeded(Exception):
    """Node budget ran out; carries the best bound found so far."""

    def __init__(self, nodes_explored: int, best_size: int | None,
                 best_set: set[int] | None):
        self.nodes_explored = nodes_explored
        self.best_size = best_size
        self.best_set = best_set
        super().__init__(
            f"node budget exhausted after {nodes_explored} nodes"
            + (f"; best detector set so far has size {best_size}"
               if best_size is not None else "; no detector set found yet"))

    def __reduce__(self):
        # lets a worker's budget error reach the parent process
        return (type(self), (self.nodes_explored, self.best_size, self.best_set))


@dataclass
class SolveResult:
    status: str                       # "optimal" | "infeasible"
    optimum: int | None = None
    witness: set[int] | None = None
    nodes_explored: int = 0


def minimum_detector_set(g: Graph, kind: DetectionKind,
                         strategy: str = "branch-and-bound",
                         budget: int | None = None,
                         jobs: int = 1) -> SolveResult:
    """Minimum-cardinality detector set of the given kind, or infeasible.

    Infeasibility is decided up front on S = V(G), which is conclusive by
    monotonicity.  With jobs > 1 the branch-and-bound root is split across
    worker processes; the result is identical to the serial search except
    for the advisory nodes_explored counter.
    """
    if not verify(g, g.full_mask(), kind).ok:
        return SolveResult(status="infeasible", nodes_explored=1)
    if strategy == "exhaustive":
        return _solve_exhaustive(g, kind, budget)
    if strategy == "branch-and-bound":
        best, nodes = _search(g, kind, budget=budget, jobs=jobs)
        if best is None:
            return SolveResult("infeasible", nodes_explored=nodes)
        return SolveResult("optimal", best.bit_count(),
                           set(bits_to_list(best)), nodes)
    raise ValueError(f"unknown strategy {strategy!r}")


def decision(g: Graph, kind: DetectionKind, k: int) -> bool:
    """True iff some detector set of size <= k passes verification."""
    if k < 0:
        raise ValueError("threshold must be non-negative")
    return detector_set_within(g, kind, k) is not None


def detector_set_within(g: Graph, kind: DetectionKind, k: int,
                        jobs: int = 1) -> set[int] | None:
    """The first detector set of size <= k in branch order, or None.

    The search stops at its first hit, so the set need not be minimum."""
    best, _ = _search(g, kind, limit=k + 1, first_hit=True, jobs=jobs)
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


def _branch_order(g: Graph) -> list[int]:
    # descending degree, ties by vertex id
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _domination_lower_bound(g: Graph, kind: DetectionKind,
                            chosen: int, undecided: int) -> int:
    """Cheap admissible bound: the worst per-vertex dominator deficit must
    be covered by additional detectors."""
    d = kind.min_domination
    need = 0
    for v in range(g.n):
        have = (g.adj[v] & chosen).bit_count()
        if d - have > need:
            need = d - have
    return chosen.bit_count() + need


def _search(g: Graph, kind: DetectionKind, limit: int | None = None,
            first_hit: bool = False, budget: int | None = None,
            jobs: int = 1) -> tuple[int | None, int]:
    """Fix the forced detectors and run the core from the root or, with
    jobs > 1, on every subtree below the first few (at most 8) branch
    vertices in worker processes, with the budget applying to each subtree.

    The serial search replaces its best only on strict improvement, and
    until its first hit what it prunes below a node depends on that node
    alone.  So a minimisation reproduces the serial answer by taking the
    smallest hit, earliest subtree first, and a decision by taking the first
    subtree, in serial order, that has a hit."""
    forced = mask_of(forced_detectors_for_kind(g, kind))
    order = [v for v in _branch_order(g) if not (forced >> v & 1)]
    depth = min(split_depth(jobs, 2), len(order))
    tasks = []
    for prefix in itertools.product((1, 0), repeat=depth):
        chosen, undecided = forced, g.full_mask() & ~forced
        for v, take in zip(order, prefix):
            undecided &= ~(1 << v)
            if take:
                chosen |= 1 << v
        tasks.append((g, kind, chosen, undecided, order[depth:], limit,
                      first_hit, budget))
    results = run_tasks(_subtree, tasks, jobs)
    nodes = sum(n for _, n in results)
    hits = [best for best, _ in results if best is not None]
    if not hits:
        return None, nodes
    return (hits[0] if first_hit else min(hits, key=int.bit_count)), nodes


def _subtree(task) -> tuple[int | None, int]:
    return _branch_and_bound(*task)


def _branch_and_bound(g: Graph, kind: DetectionKind, chosen: int,
                      undecided: int, order: list[int],
                      limit: int | None = None, first_hit: bool = False,
                      budget: int | None = None) -> tuple[int | None, int]:
    """Depth-first search from the state (chosen, undecided), branching on
    the vertices of `order`, which are exactly the undecided ones, in turn,
    take before skip.

    Only sets smaller than `limit` (if given) are hits, and after a hit only
    strictly smaller sets are; with `first_hit` the search stops at its
    first hit.  Returns (best set as a mask or None, nodes explored).  An
    explicit stack keeps the depth free of the recursion limit; pushing the
    skip branch below the take branch visits nodes in the same preorder as
    a recursive search."""
    bound = limit
    best: int | None = None
    nodes = 0
    stack = [(0, chosen, undecided)]
    while stack:
        idx, chosen, undecided = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(
                nodes - 1, None if best is None else best.bit_count(),
                None if best is None else set(bits_to_list(best)))
        size = chosen.bit_count()
        if bound is not None and size >= bound:
            continue
        if first_failure(g, chosen | undecided, kind) is not None:
            continue
        if bound is not None and \
                _domination_lower_bound(g, kind, chosen, undecided) >= bound:
            continue
        if idx == len(order):
            # nothing is undecided, so the test above verified `chosen`
            best, bound = chosen, size
            if first_hit:
                break
            continue
        bit = 1 << order[idx]
        stack.append((idx + 1, chosen, undecided & ~bit))
        stack.append((idx + 1, chosen | bit, undecided & ~bit))
    return best, nodes
