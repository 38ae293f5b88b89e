"""Command-line front end.

Reports are stable line-oriented "key: value" text on stdout, one key per
line.  Each input file is read once, and the report carries a sha256 digest
of exactly the bytes that were parsed.  Exit codes: 0 = ok, 1 = valid input
with a negative answer, 2 = bad input, resource limits, interrupts, a report
that standard output refuses (a `status: error` line then goes to stderr), or
unknown commands (argparse prints usage to stderr for the latter)."""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from .graph import ResourceLimit, int_reader, parse_edge_list, serialize_edge_list
from .detection import (KIND_FLAGS, kind_from_flag, verify, exists_err_old,
                        parse_detector_set)
from .solver import (minimum_detector_set, detector_set_within,
                     SearchBudgetExceeded)
from .extremal import enumerate_graphs, quasi_cubic_expand
from . import reduction
from . import grids


class ReportUnwritten(Exception):
    """Standard output refused the report; the OSError is the cause."""


class Report:
    def __init__(self, command: str):
        self.lines: list[tuple[str, str]] = [("command", command)]
        self.tail: list[str] = []

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def read(self, name: str, path: str) -> str:
        """The file's text; its bytes, read once, are also digested."""
        with open(path, "rb") as fh:
            data = fh.read()
        self.add(f"digest-{name}", f"sha256:{hashlib.sha256(data).hexdigest()}")
        return data.decode("utf-8")

    def section(self, text: str) -> None:
        self.tail.append(text)

    def emit(self, status: str) -> None:
        self.add("status", status)
        try:
            for key, value in self.lines:
                print(f"{key}: {value}")
            for text in self.tail:
                print(text, end="" if text.endswith("\n") else "\n")
            sys.stdout.flush()
        except OSError as exc:
            raise ReportUnwritten(exc) from exc

    def finish(self, ok: bool) -> int:
        """Emit with status ok or fail; the exit code is 0 or 1 to match."""
        self.emit("ok" if ok else "fail")
        return 0 if ok else 1


def cmd_verify(args) -> int:
    report = Report("verify")
    g = parse_edge_list(report.read("graph", args.graph))
    detectors = parse_detector_set(report.read("set", args.set), g)
    kind = kind_from_flag(args.kind)
    verdict = verify(g, detectors, kind)
    report.add("kind", kind)
    report.add("pass", str(verdict.ok).lower())
    if not verdict.ok:
        if verdict.vertex is not None:
            report.add("witness-vertex", verdict.vertex)
            report.add("witness-domination", verdict.value)
        else:
            report.add("witness-pair", f"{verdict.pair[0]} {verdict.pair[1]}")
            report.add("witness-value", verdict.value)
    return report.finish(verdict.ok)


def cmd_exists(args) -> int:
    report = Report("exists")
    g = parse_edge_list(report.read("graph", args.graph))
    res = exists_err_old(g)
    report.add("exists", str(res.exists).lower())
    if not res.exists:
        if res.low_degree_vertex is not None:
            report.add("witness-vertex", res.low_degree_vertex)
            report.add("witness-degree", g.degree(res.low_degree_vertex))
        else:
            report.add("witness-cycle", " ".join(str(v) for v in res.cycle))
            report.add("witness-pair", f"{res.pair[0]} {res.pair[1]}")
            report.add("witness-value", res.value)
    return report.finish(res.exists)


def cmd_solve(args) -> int:
    report = Report("solve")
    g = parse_edge_list(report.read("graph", args.graph))
    kind = kind_from_flag(args.kind)
    res = minimum_detector_set(g, kind, budget=args.budget)
    report.add("kind", kind)
    report.add("result", res.status)
    if res.status == "optimal":
        report.add("optimum", res.optimum)
        report.add("witness", " ".join(str(v) for v in sorted(res.witness)))
    report.add("nodes-explored", res.nodes_explored)
    return report.finish(res.status == "optimal")


def cmd_decide(args) -> int:
    report = Report("decide")
    g = parse_edge_list(report.read("graph", args.graph))
    kind = kind_from_flag(args.kind)
    answer = detector_set_within(g, kind, args.k) is not None
    # a valid set of size <= k makes V(G) valid too
    feasible = answer or verify(g, g.full_mask(), kind).ok
    report.add("kind", kind)
    report.add("k", args.k)
    if not feasible:
        report.add("result", "infeasible")
    report.add("answer", str(answer).lower())
    return report.finish(answer)


def cmd_enumerate(args) -> int:
    report = Report("enumerate")
    predicate = exists_err_old if args.predicate == "err" else None
    found = enumerate_graphs(args.n, args.m, predicate=predicate,
                             min_degree=args.min_degree)
    report.add("n", args.n)
    if args.m is not None:
        report.add("m", args.m)
    report.add("count", len(found))
    for cg in found:
        report.add("graph", cg.manifest_line())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        manifest_path = os.path.join(args.out, "manifest.txt")
        with open(manifest_path, "w", encoding="utf-8") as mh:
            for cg in found:
                mh.write(cg.manifest_line() + "\n")
                gpath = os.path.join(args.out, f"graph_{cg.hex}.el")
                with open(gpath, "w", encoding="utf-8") as gh:
                    gh.write(serialize_edge_list(cg.graph))
        report.add("out-dir", args.out)
    return report.finish(True)


def cmd_expand(args) -> int:
    report = Report("expand")
    g = parse_edge_list(report.read("graph", args.graph))
    expanded = quasi_cubic_expand(g, tuple(args.e1), tuple(args.e2))
    report.add("n", expanded.n)
    report.add("m", expanded.m)
    report.add("quasi-cubic", str(expanded.degree_summary()[3]).lower())
    report.add("exists-err-old", str(exists_err_old(expanded).exists).lower())
    report.section("## graph\n" + serialize_edge_list(expanded))
    return report.finish(True)


def cmd_reduce(args) -> int:
    report = Report("reduce")
    formula = reduction.parse_dimacs_cnf(report.read("cnf", args.cnf))
    inst = reduction.build_instance(formula)
    report.add("variables", formula.num_variables)
    report.add("clauses", formula.num_clauses)
    report.add("vertices", inst.graph.n)
    report.add("edges", inst.graph.m)
    report.add("K", inst.k)
    for name, path, text in (("graph", args.out_graph, serialize_edge_list(inst.graph)),
                             ("manifest", args.out_manifest, inst.manifest())):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            report.add(f"{name}-file", path)
        else:
            report.section(f"## {name}\n" + text)
    return report.finish(True)


def cmd_gadget_check(args) -> int:
    report = Report("gadget-check")
    formula = reduction.parse_dimacs_cnf(report.read("cnf", args.cnf))
    inst = reduction.build_instance(formula)
    check = reduction.validate_gadgets(inst)
    report.add("forced-count", len(inst.forced))
    report.add("pass", str(check.ok).lower())
    for i, defect in enumerate(check.defects, start=1):
        report.add(f"defect-{i}", defect)
    return report.finish(check.ok)


def cmd_roundtrip(args) -> int:
    report = Report("roundtrip")
    formula = reduction.parse_dimacs_cnf(report.read("cnf", args.cnf))
    check = reduction.roundtrip_check(formula)
    report.add("satisfiable", str(check.satisfiable).lower())
    report.add("detector-set-within-budget", str(check.found).lower())
    report.add("K", check.k)
    report.add("equivalent", str(bool(check)).lower())
    return report.finish(bool(check))


def cmd_grid_certify(args) -> int:
    report = Report("grid-certify")
    pat = grids.parse_pattern(report.read("pattern", args.pattern))
    cert = grids.certify_pattern(pat)
    report.add("grid", pat.kind.name)
    report.add("index", pat.index)
    report.add("density", grids.pattern_density(pat))
    report.add("pass", str(cert.ok).lower())
    if not cert.ok:
        report.add("failing-class", f"{cert.failing_class[0]} {cert.failing_class[1]}")
        if cert.failing_displacement is not None:
            report.add("failing-displacement",
                       f"{cert.failing_displacement[0]} {cert.failing_displacement[1]}")
        report.add("value", cert.value)
    return report.finish(cert.ok)


def cmd_grid_search(args) -> int:
    report = Report("grid-search")
    kind = grids.GRID_KINDS[args.grid]
    best = grids.search_patterns(kind, args.max_index)
    report.add("grid", kind.name)
    report.add("max-index", args.max_index)
    if best is None:
        report.add("found", "false")
        return report.finish(False)
    report.add("found", "true")
    report.add("density", grids.pattern_density(best))
    report.add("index", best.index)
    report.section("## pattern\n" + grids.serialize_pattern(best))
    return report.finish(True)


def cmd_grid_share(args) -> int:
    report = Report("grid-share")
    pat = grids.parse_pattern(report.read("pattern", args.pattern))
    report.add("grid", pat.kind.name)
    report.add("index", pat.index)
    report.add("density", grids.pattern_density(pat))
    shares = grids.detector_shares(pat)
    report.add("max-share", max(shares))
    report.add("share-sum", sum(shares))
    return report.finish(True)


def cmd_render(args) -> int:
    report = Report("render")
    pat = grids.parse_pattern(report.read("pattern", args.pattern))
    report.add("grid", pat.kind.name)
    report.add("window", args.window)
    report.section("figure:\n" + grids.render_pattern(pat, args.window))
    return report.finish(True)


def _integer(text: str) -> int:
    # read as the file parsers read numbers: no '_' and only ASCII digits;
    # the range checks are the library's
    try:
        return int_reader(text)(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="errold",
        description="Detection systems on graphs: verification, existence, "
                    "exact optimisation, enumeration, hardness reduction, and "
                    "infinite-grid patterns for error-correcting "
                    "open-locating-dominating sets.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def graph_flag(p):
        p.add_argument("--graph", required=True, help="edge-list file")

    def kind_flag(p):
        p.add_argument("--kind", required=True, choices=KIND_FLAGS)

    p = sub.add_parser("verify", help="check a detector set")
    graph_flag(p)
    p.add_argument("--set", required=True, help="detector-set file")
    kind_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exists", help="ERR:OLD existence test")
    graph_flag(p)
    p.set_defaults(func=cmd_exists)

    p = sub.add_parser("solve", help="minimum detector set")
    graph_flag(p)
    kind_flag(p)
    p.add_argument("--budget", type=_integer, default=None, help="node limit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decide", help="is there a detector set of size <= k")
    graph_flag(p)
    kind_flag(p)
    p.add_argument("--k", type=_integer, required=True)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("enumerate", help="non-isomorphic graphs, optionally filtered")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--m", type=_integer, default=None)
    p.add_argument("--predicate", choices=["err", "all"], default="err")
    p.add_argument("--min-degree", type=_integer, default=0)
    p.add_argument("--out", default=None, help="directory for edge-list files + manifest")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("expand", help="quasi-cubic expansion of a cubic graph")
    graph_flag(p)
    p.add_argument("--e1", type=_integer, nargs=2, required=True, metavar=("U", "V"))
    p.add_argument("--e2", type=_integer, nargs=2, required=True, metavar=("U", "V"))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("reduce", help="compile 3-SAT into a decision instance")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file")
    p.add_argument("--out-graph", default=None)
    p.add_argument("--out-manifest", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gadget-check", help="validate the gadget guarantees")
    p.add_argument("--cnf", required=True)
    p.set_defaults(func=cmd_gadget_check)

    p = sub.add_parser("roundtrip", help="SAT vs budgeted detector-set equivalence")
    p.add_argument("--cnf", required=True)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("grid-certify", help="certify a periodic pattern")
    p.add_argument("--pattern", required=True, help="pattern file")
    p.set_defaults(func=cmd_grid_certify)

    p = sub.add_parser("grid-search", help="minimum-density certified pattern")
    p.add_argument("--grid", required=True, choices=grids.GRID_KINDS)
    p.add_argument("--max-index", type=_integer, required=True)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("grid-share", help="share diagnostics of a certified pattern")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_grid_share)

    p = sub.add_parser("render", help="character-grid rendering of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--window", type=_integer, required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReportUnwritten as exc:
        # part of the report may be out already: no second status line there;
        # on the process's own stdout, what stays buffered goes to os.devnull
        # at the interpreter's exit
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write the report: {exc}\nstatus: error", file=sys.stderr)
        return 2


def _run(args) -> int:
    try:
        return args.func(args)
    except (OSError, ValueError, ResourceLimit, MemoryError, RecursionError,
            SearchBudgetExceeded, KeyboardInterrupt) as exc:
        # the search raises SearchInterrupted; a bare KeyboardInterrupt is
        # Ctrl-C outside it, e.g. during an enumeration
        report = Report(args.cmd)
        report.add("error", "interrupted" if isinstance(exc, KeyboardInterrupt)
                   else exc)
        if isinstance(exc, SearchBudgetExceeded):
            report.add("nodes-explored", exc.nodes_explored)
            if exc.best_size is not None:
                report.add("best-size", exc.best_size)
                report.add("best-set", " ".join(str(v) for v in sorted(exc.best_set)))
        report.emit("error")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
