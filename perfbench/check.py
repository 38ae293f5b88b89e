"""Checker for the reports the benchmark's items produce.

``check(item, rc, out)`` returns the list of problems found in one report;
an empty list means the report is correct.  The checks recompute each answer
from the input files with the program's slow reference paths (naive
verification, exhaustive search on small graphs) or with the benchmark's own
brute force (canonical forms, planted satisfiability), and compare against
the recorded class counts and densities in ``workloads``.
"""

from __future__ import annotations

import hashlib
import itertools

from errold import grids
from errold.detection import ERR_OLD, exists_err_old, kind_from_flag, verify
from errold.extremal import canonical_encoding, encoding_hex, graph_from_encoding
from errold.graph import parse_edge_list
from errold.solver import minimum_detector_set

# Graphs this small also get their optimum recomputed by exhaustive search.
EXHAUSTIVE_MAX_N = 10
# Canonical forms are recomputed over all n! labelings up to this size.
BRUTE_CANONICAL_MAX_N = 7
# Repetitions of the lattice in the torus cross-check of a grid pattern.
TORUS_REPETITIONS = 5


def report_fields(out: str) -> dict[str, list[str]]:
    """``key: value`` lines of a report, each key mapped to all its values."""
    fields: dict[str, list[str]] = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and " " not in key:
            fields.setdefault(key, []).append(value)
    return fields


def _one(fields, key):
    values = fields.get(key, [])
    return values[0] if len(values) == 1 else None


def _digest_ok(fields, name, path) -> bool:
    with open(path, "rb") as fh:
        want = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    return _one(fields, f"digest-{name}") == want


def check(item, rc, out: str) -> list[str]:
    fields = report_fields(out)
    if rc not in (0, 1) or _one(fields, "status") == "error":
        return [f"exit {rc}, status {_one(fields, 'status')}"]
    try:
        return _CHECKERS[item.argv[0]](item, rc, fields, out)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]


def check_solve(item, rc, f, out) -> list[str]:
    path, flag = item.expect["graph"], item.expect["kind"]
    kind = kind_from_flag(flag)
    g = _load(path)
    problems = []
    if not _digest_ok(f, "graph", path):
        problems.append("graph digest mismatch")
    if _one(f, "kind") != str(kind):
        problems.append(f"kind {_one(f, 'kind')!r} != {kind}")
    result = _one(f, "result")
    if result == "infeasible":
        if rc != 1:
            problems.append(f"infeasible with exit {rc}")
        if verify(g, g.full_mask(), kind, strategy="naive").ok:
            problems.append("reported infeasible, but the whole vertex set works")
        return problems
    if result != "optimal" or rc != 0:
        return problems + [f"result {result!r} with exit {rc}"]
    witness = {int(v) for v in _one(f, "witness").split()}
    optimum = int(_one(f, "optimum"))
    if optimum != len(witness):
        problems.append(f"optimum {optimum} != witness size {len(witness)}")
    if not verify(g, witness, kind, strategy="naive").ok:
        problems.append("witness fails naive verification")
        return problems
    # a minimum set is inclusion-minimal, by monotonicity
    for v in sorted(witness):
        if verify(g, witness - {v}, kind, strategy="naive").ok:
            problems.append(f"witness minus {v} still verifies: not minimum")
            break
    if g.n <= EXHAUSTIVE_MAX_N:
        exact = minimum_detector_set(g, kind, strategy="exhaustive").optimum
        if exact != optimum:
            problems.append(f"optimum {optimum} != exhaustive optimum {exact}")
    return problems


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def brute_canonical_hex(g) -> str:
    """Minimum column-major adjacency encoding over all n! labelings."""
    n, adj = g.n, g.adj
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best = min(tuple(adj[perm[i]] >> perm[j] & 1 for i, j in pairs)
               for perm in itertools.permutations(range(n)))
    return encoding_hex(best)


def check_enumerate(item, rc, f, out) -> list[str]:
    n, m, pred = item.expect["n"], item.expect["m"], item.expect["predicate"]
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}")
    lines = f.get("graph", [])
    count = _one(f, "count")
    want = item.expect["classes"]
    if count != str(want) or len(lines) != want:
        problems.append(f"count {count} with {len(lines)} graphs, expected {want}")
    hexes = [line.split()[2] for line in lines]
    if len(set(hexes)) != len(hexes):
        problems.append("a class is listed twice")
    for line in lines:
        gn, gm, hx = line.split()
        if (int(gn), int(gm)) != (n, m):
            problems.append(f"class {hx} has n, m = {gn}, {gm}")
            continue
        width = len(hx) * 4
        bits = bin(int(hx, 16))[2:].zfill(width)[width - n * (n - 1) // 2:]
        g = graph_from_encoding(n, tuple(int(b) for b in bits))
        if g.m != m:
            problems.append(f"class {hx} encodes {g.m} edges, not {m}")
        if min(g.degrees()) < 3:
            problems.append(f"class {hx} has a vertex of degree < 3")
        if pred == "err" and not exists_err_old(g).exists:
            problems.append(f"class {hx} does not support ERR:OLD")
        if encoding_hex(canonical_encoding(g)) != hx:
            problems.append(f"class {hx} does not re-canonicalise to itself")
        elif n <= BRUTE_CANONICAL_MAX_N and brute_canonical_hex(g) != hx:
            problems.append(f"class {hx} is not the minimum encoding")
    return problems


def check_grid_search(item, rc, f, out) -> list[str]:
    problems = []
    if rc != 0 or _one(f, "found") != "true":
        return [f"exit {rc}, found {_one(f, 'found')!r}"]
    want = item.expect["density"]
    if _one(f, "density") != want:
        problems.append(f"density {_one(f, 'density')} != recorded {want}")
    pat = grids.parse_pattern(out.split("## pattern\n", 1)[1])
    if str(grids.pattern_density(pat)) != _one(f, "density"):
        problems.append("printed pattern's density differs from the report")
    if str(pat.index) != _one(f, "index"):
        problems.append("printed pattern's index differs from the report")
    if not grids.certify_pattern(pat).ok:
        problems.append("printed pattern fails certification")
    torus, detectors = grids.torus_graph(pat, TORUS_REPETITIONS)
    if not verify(torus, detectors, ERR_OLD).ok:
        problems.append("printed pattern fails on the torus")
    return problems


def check_reduce(item, rc, f, out) -> list[str]:
    n, m = item.expect["n"], item.expect["m"]
    want = {"variables": n, "clauses": m, "vertices": 25 * n + 8 * m,
            "edges": 51 * n + 17 * m, "K": 22 * n + 7 * m}
    problems = [f"{key} {_one(f, key)} != {value}"
                for key, value in want.items() if _one(f, key) != str(value)]
    if rc != 0:
        problems.append(f"exit {rc}")
    if not _digest_ok(f, "cnf", item.expect["cnf"]):
        problems.append("cnf digest mismatch")
    return problems


def check_gadget(item, rc, f, out) -> list[str]:
    n, m = item.expect["n"], item.expect["m"]
    problems = []
    if rc != 0 or _one(f, "pass") != "true":
        problems.append(f"exit {rc}, pass {_one(f, 'pass')!r}")
    if _one(f, "forced-count") != str(21 * n + 7 * m):
        problems.append(f"forced-count {_one(f, 'forced-count')} != 21N+7M")
    return problems


def check_roundtrip(item, rc, f, out) -> list[str]:
    sat = str(item.expect["sat"]).lower()
    problems = []
    if rc != 0 or _one(f, "equivalent") != "true":
        problems.append(f"exit {rc}, equivalent {_one(f, 'equivalent')!r}")
    if _one(f, "satisfiable") != sat:
        problems.append(f"satisfiable {_one(f, 'satisfiable')} != planted {sat}")
    if _one(f, "detector-set-within-budget") != sat:
        problems.append("budgeted detector set disagrees with satisfiability")
    return problems


_CHECKERS = {
    "solve": check_solve,
    "enumerate": check_enumerate,
    "grid-search": check_grid_search,
    "reduce": check_reduce,
    "gadget-check": check_gadget,
    "roundtrip": check_roundtrip,
}
