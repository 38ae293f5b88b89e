"""Seeded inputs and item lists for the benchmark workloads.

A workload is a list of items; an item is one ``errold`` command line plus
the facts the checker judges its report against.  Inputs are generated here
from the seed alone, by generators of the benchmark's own, so two commits
are always measured on byte-identical files and the program under test sees
nothing but those files.

Why each workload exists (the layer it stresses, and what it leaves out):

solve
    ``solve`` for all four kinds on Heawood, Petersen, 64 random cubic
    graphs (n=14) and 56 random G(16, 0.3) graphs.  The branch-and-bound
    search's own time dominates; ``verify`` runs only at its leaves.
    ERR:OLD on cubic graphs is settled by degree-3 forcing at one node, the
    same layer in a second regime.  Canonical labelling and grid search
    never run.  The graph family is fixed and the seed relabels its
    vertices, which changes the branch order (ties break by vertex id) but
    not how hard each graph is; fresh random graphs per seed made the pass
    time vary by 40% between seeds.
roundtrip
    ``reduce``, ``gadget-check`` and ``roundtrip`` on 100 seeded 3-CNFs at
    the cap 4N + M = 20 (N=4/M=4 and N=3/M=8), a quarter of them
    unsatisfiable.  This is the budgeted decision use of the search on
    99-139-vertex graphs and is dominated by ``verify``: a change to the
    search core that helps ``solve`` but hurts decision shows here.
enum-classes
    ``enumerate --n 7 --m 11 --min-degree 3 --predicate all``: about 90% of
    the time is ``canonical_encoding``.
enum-filter
    ``enumerate --predicate err --min-degree 3`` at (7, 11) and (7, 13): the
    time goes into labeled generation, ``Graph`` construction and
    ``exists_err_old``.  No graph survives the predicate, so canonical
    labelling never runs and a change to it should not move this workload.
    (7, 12) is left out: its 3,360 labeled survivors put about 45% of the
    time into canonical labelling.  The self-test still checks its two
    classes.
grid
    ``grid-search`` on SQR@8, TRI@7 and KNG@13.  Only the grids module does
    work here.

The enumeration and grid workloads take no input files: their commands are
fixed and the seed changes nothing.  ``small=True`` builds reduced
versions of every workload for the self-test.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

WORKLOADS = ("solve", "roundtrip", "enum-classes", "enum-filter", "grid")

SOLVE_KINDS = ("old", "redold", "detold", "err")
# Far above what any solve item needs: hitting it is a regression, and the
# item then exits 2, which counts as a failure.
SOLVE_BUDGET = 2_000_000

# (n, count) of the random cubic graphs and (n, p, count) of the G(n, p)
# graphs in the solve family.
CUBIC = (14, 64)
GNP = (16, 0.3, 56)
SMALL_CUBIC = (12, 2)
SMALL_GNP = (12, 0.3, 2)

ROUNDTRIP_FORMULAS = 100
SMALL_ROUNDTRIP_FORMULAS = 4

# (n, m, predicate) per enumeration item, with the class counts recorded
# from the seed implementation; the checker requires these exact counts.
ENUM_CLASSES = [(7, 11, "all")]
ENUM_FILTER = [(7, 11, "err"), (7, 13, "err")]
SMALL_ENUM_CLASSES = [(6, 9, "all")]
SMALL_ENUM_FILTER = [(6, 9, "err"), (6, 10, "err")]
ENUM_MIN_DEGREE = 3
EXPECTED_CLASSES = {
    (6, 9, "all"): 2, (6, 9, "err"): 0, (6, 10, "err"): 0,
    (7, 11, "all"): 4, (7, 11, "err"): 0, (7, 12, "err"): 2, (7, 13, "err"): 0,
}

# (grid, max index) per grid-search item, with the best density recorded
# from the seed implementation.
GRID_SEARCHES = [("SQR", 8), ("TRI", 7), ("KNG", 13)]
SMALL_GRID_SEARCHES = [("SQR", 8), ("TRI", 7), ("KNG", 9)]
EXPECTED_DENSITY = {("SQR", 8): "7/8", ("TRI", 7): "4/7",
                    ("KNG", 9): "1/2", ("KNG", 13): "5/11"}


@dataclass(frozen=True)
class Item:
    """One command line and the facts its report is checked against."""
    key: str
    argv: tuple[str, ...]
    expect: dict


# -- graphs -------------------------------------------------------------------


def heawood_edges() -> tuple[int, list[tuple[int, int]]]:
    """Heawood graph from its LCF notation [5,-5]^7."""
    edges = {tuple(sorted((i, (i + 1) % 14))) for i in range(14)}
    edges |= {tuple(sorted((i, (i + 5) % 14))) for i in range(0, 14, 2)}
    return 14, sorted(edges)


def petersen_edges() -> tuple[int, list[tuple[int, int]]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, sorted(tuple(sorted(e)) for e in edges)


def random_cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform simple cubic graph by the pairing model with rejection."""
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return sorted(edges)


def random_gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def open_twin_free(n: int, edges) -> bool:
    """True when no vertex is isolated and no two vertices share their open
    neighbourhood, i.e. when an OLD set exists."""
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return all(nbrs) and len(set(nbrs)) == n


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def edge_list_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def solve_family(small: bool) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """The fixed graph family of the solve workload.  Random graphs are
    redrawn until an OLD set exists, so every graph takes a real search for
    OLD instead of being rejected at the feasibility test."""
    rng = random.Random("solve-family")
    cubic_n, cubic_count = SMALL_CUBIC if small else CUBIC
    gnp_n, gnp_p, gnp_count = SMALL_GNP if small else GNP
    graphs = [("heawood", *heawood_edges()), ("petersen", *petersen_edges())]
    for i in range(cubic_count):
        edges = random_cubic_edges(cubic_n, rng)
        while not open_twin_free(cubic_n, edges):
            edges = random_cubic_edges(cubic_n, rng)
        graphs.append((f"cubic{cubic_n}-{i}", cubic_n, edges))
    for i in range(gnp_count):
        edges = random_gnp_edges(gnp_n, gnp_p, rng)
        while not open_twin_free(gnp_n, edges):
            edges = random_gnp_edges(gnp_n, gnp_p, rng)
        graphs.append((f"gnp{gnp_n}-{i}", gnp_n, edges))
    return graphs


# -- 3-CNF formulas -------------------------------------------------------------


def planted_formula(n: int, m: int, rng: random.Random) -> list[list[int]]:
    """Random 3-CNF over n variables with a planted satisfying assignment:
    a clause the assignment falsifies gets one literal negated."""
    planted = [rng.random() < 0.5 for _ in range(n + 1)]
    clauses = []
    for _ in range(m):
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), 3)]
        if not any((lit > 0) == planted[abs(lit)] for lit in lits):
            i = rng.randrange(3)
            lits[i] = -lits[i]
        clauses.append(lits)
    return clauses


def full_sign_formula(rng: random.Random) -> list[list[int]]:
    """All 8 sign patterns over 3 variables, with clause order, literal
    order and variable labels shuffled: unsatisfiable."""
    labels = [1, 2, 3]
    rng.shuffle(labels)
    clauses = [[s * v for s, v in zip(signs, labels)]
               for signs in itertools.product((1, -1), repeat=3)]
    rng.shuffle(clauses)
    for clause in clauses:
        rng.shuffle(clause)
    return clauses


def dimacs_text(n: int, clauses) -> str:
    return f"p cnf {n} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


# -- workloads ------------------------------------------------------------------


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _solve(seed: int, workdir: str, small: bool) -> list[Item]:
    rng = random.Random(f"solve-{seed}")
    items = []
    for name, n, edges in solve_family(small):
        path = _write(workdir, f"{name}.el", edge_list_text(n, relabel(n, edges, rng)))
        for kind in SOLVE_KINDS:
            items.append(Item(f"solve/{name}/{kind}",
                              ("solve", "--graph", path, "--kind", kind,
                               "--budget", str(SOLVE_BUDGET)),
                              {"graph": path, "kind": kind}))
    return items


def _roundtrip(seed: int, workdir: str, small: bool) -> list[Item]:
    rng = random.Random(f"roundtrip-{seed}")
    count = SMALL_ROUNDTRIP_FORMULAS if small else ROUNDTRIP_FORMULAS
    items = []
    for i in range(count):
        # a quarter unsatisfiable; the satisfiable rest alternates shapes
        if i % 4 == 3:
            n, clauses, sat = 3, full_sign_formula(rng), False
        else:
            n, m = (4, 4) if i % 2 == 0 else (3, 8)
            clauses, sat = planted_formula(n, m, rng), True
        path = _write(workdir, f"f{i:03d}.cnf", dimacs_text(n, clauses))
        expect = {"cnf": path, "n": n, "m": len(clauses), "sat": sat}
        for cmd in ("reduce", "gadget-check", "roundtrip"):
            items.append(Item(f"roundtrip/f{i:03d}/{cmd}", (cmd, "--cnf", path), expect))
    return items


def enumerate_items(params) -> list[Item]:
    return [Item(f"enumerate/{n}-{m}-{pred}",
                 ("enumerate", "--n", str(n), "--m", str(m),
                  "--min-degree", str(ENUM_MIN_DEGREE), "--predicate", pred),
                 {"n": n, "m": m, "predicate": pred,
                  "classes": EXPECTED_CLASSES[(n, m, pred)]})
            for n, m, pred in params]


def _grid(searches) -> list[Item]:
    return [Item(f"grid-search/{grid}@{index}",
                 ("grid-search", "--grid", grid, "--max-index", str(index)),
                 {"grid": grid, "density": EXPECTED_DENSITY[(grid, index)]})
            for grid, index in searches]


def build(workload: str, seed: int, workdir: str, small: bool = False) -> list[Item]:
    """Write the workload's input files into workdir and return its items."""
    if workload == "solve":
        return _solve(seed, workdir, small)
    if workload == "roundtrip":
        return _roundtrip(seed, workdir, small)
    if workload == "enum-classes":
        return enumerate_items(SMALL_ENUM_CLASSES if small else ENUM_CLASSES)
    if workload == "enum-filter":
        return enumerate_items(SMALL_ENUM_FILTER if small else ENUM_FILTER)
    if workload == "grid":
        return _grid(SMALL_GRID_SEARCHES if small else GRID_SEARCHES)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
