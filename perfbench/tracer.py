"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces selected errold functions by timing wrappers
at every binding site: the defining module, every ``from x import f`` copy
in other errold modules (``errold.solver.verify`` and
``errold.reduction.verify`` are separate names), and class attributes for
``Graph`` methods.  ``restore()`` puts every original back.  No source file
is touched.

Two kinds of targets:

* entries (layer entry points and items) get a full span each: name, start,
  end, parent span id and item key;
* leaves (the hot inner calls) are aggregated as call count, total time and
  self time, and as call counts per enclosing entry.

Every wrapped call also gets a frame on one stack, so each frame's self time
is its duration minus the time of the wrapped calls beneath it.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, metric name, full span?, outcome attribute or None)
TARGETS = (
    ("errold.graph", "Graph.__init__", "graph.init", False, None),
    ("errold.graph", "Graph.pairs_within_distance_two", "graph.dist2", False, None),
    ("errold.graph", "Graph.four_cycles", "graph.four_cycles", False, None),
    ("errold.graph", "parse_edge_list", "graph.parse", True, None),
    ("errold.detection", "verify", "detection.verify", False, "ok"),
    ("errold.detection", "exists_err_old", "detection.exists", False, "exists"),
    ("errold.solver", "minimum_detector_set", "solver.solve", True, None),
    ("errold.extremal", "enumerate_graphs", "extremal.enumerate", True, None),
    ("errold.extremal", "labeled_graphs", "extremal.labeled", False, None),
    ("errold.extremal", "canonical_encoding", "extremal.canonical", False, None),
    ("errold.grids", "search_patterns", "grids.search", True, None),
    ("errold.grids", "_search_basis", "grids.search_basis", True, None),
    ("errold.grids", "certify_pattern", "grids.certify", False, "ok"),
    ("errold.grids", "parse_pattern", "grids.parse", True, None),
    ("errold.reduction", "parse_dimacs_cnf", "reduction.parse", True, None),
    ("errold.reduction", "build_instance", "reduction.build", True, None),
    ("errold.reduction", "validate_gadgets", "reduction.gadget", True, None),
    ("errold.reduction", "sat_brute_force", "reduction.sat", True, None),
    ("errold.reduction", "find_detector_set_within_budget", "reduction.search", True, None),
)

# Generator functions: the time spent inside each next() is what counts.
GENERATORS = frozenset({"extremal.labeled"})


@dataclass
class Stat:
    calls: int = 0
    ok: int = 0
    total: float = 0.0
    self_time: float = 0.0
    max_time: float = 0.0

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total += duration
        self.self_time += self_time
        self.max_time = max(self.max_time, duration)


@dataclass
class _Frame:
    name: str
    span: int | None        # own span id, for entries
    entry_span: int | None  # innermost enclosing entry span, own included
    entry: str              # its name
    child: float = 0.0


@dataclass
class Tracer:
    item_key: str = ""
    stats: dict[str, Stat] = field(default_factory=dict)
    # (leaf, enclosing entry) -> calls
    within: dict[tuple[str, str], int] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, full: bool) -> float:
        outer = self._stack[-1] if self._stack else None
        entry_span = outer.entry_span if outer else None
        entry = outer.entry if outer else ""
        span = None
        if full:
            span = len(self.spans)
            self.spans.append({"id": span, "parent": entry_span, "item": self.item_key,
                               "name": name, "start": time.perf_counter(), "end": None})
            entry_span, entry = span, name
        else:
            key = (name, entry)
            self.within[key] = self.within.get(key, 0) + 1
        self._stack.append(_Frame(name, span, entry_span, entry))
        return time.perf_counter()

    def _exit(self, start: float, ok: bool = False, count: bool = True) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1].child += duration
        stat = self.stats.setdefault(frame.name, Stat())
        if count:
            stat.add(duration, duration - frame.child)
            stat.ok += ok
        else:  # a generator's final, empty next(): time only
            stat.total += duration
            stat.self_time += duration - frame.child
        if frame.span is not None:
            self.spans[frame.span]["end"] = end

    def run_item(self, key: str, func, *args):
        """Call func(*args) inside a full span for one benchmark item."""
        self.item_key = key
        start = self._enter("item", True)
        try:
            return func(*args)
        finally:
            self._exit(start)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, func, name: str, full: bool, outcome: str | None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = tracer._enter(name, full)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._exit(start)
                raise
            tracer._exit(start, outcome is not None and bool(getattr(result, outcome)))
            return result
        return wrapper

    def _wrap_generator(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                start = tracer._enter(name, False)
                try:
                    value = next(inner)
                except StopIteration:
                    tracer._exit(start, count=False)
                    return
                except BaseException:
                    tracer._exit(start, count=False)
                    raise
                tracer._exit(start)
                yield value
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "errold" or key.startswith("errold."))]
        for module_name, attr, name, full, outcome in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if name in GENERATORS:
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap(original, name, full, outcome)
            sites = [owner]
            if owner is sys.modules[module_name]:
                sites += [m for m in modules
                          if m is not owner and getattr(m, attr, None) is original]
            for site in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(tracer: Tracer, reports: list[tuple[str, int, str]]) -> dict[str, float]:
    """Per-layer metric values of one traced pass.  ``reports`` holds
    (command, exit code, report text) per item; node and class counts are
    read from the reports."""
    s = tracer.stats.get

    def stat(name) -> Stat:
        return s(name) or Stat()

    def ratio(a, b):
        return a / b if b else 0.0

    nodes = classes = 0
    for command, _, out in reports:
        for line in out.splitlines():
            if command == "solve" and line.startswith("nodes-explored: "):
                nodes += int(line.split(": ")[1])
            elif command == "enumerate" and line.startswith("count: "):
                classes += int(line.split(": ")[1])
    item = stat("item")
    solve, canon = stat("solver.solve"), stat("extremal.canonical")
    exists, verify_ = stat("detection.exists"), stat("detection.verify")
    certify = stat("grids.certify")
    return {
        "graph.init.calls": stat("graph.init").calls,
        "graph.init.s": stat("graph.init").total,
        "graph.dist2.s": stat("graph.dist2").total,
        "graph.four_cycles.s": stat("graph.four_cycles").total,
        "detection.exists.calls": exists.calls,
        "detection.exists.s": exists.total,
        "detection.exists.pass_ratio": ratio(exists.ok, exists.calls),
        "detection.verify.calls": verify_.calls,
        "detection.verify.s": verify_.total,
        "detection.verify.ok_ratio": ratio(verify_.ok, verify_.calls),
        "solver.solve.s": solve.self_time,
        "solver.nodes": nodes,
        "solver.nodes_per_s": ratio(nodes, solve.total),
        "extremal.labeled.count": stat("extremal.labeled").calls,
        "extremal.labeled.s": stat("extremal.labeled").total,
        "extremal.canonical.calls": canon.calls,
        "extremal.canonical.s": canon.total,
        "extremal.class_ratio": ratio(classes, canon.calls),
        "grids.lattices": stat("grids.search_basis").calls,
        "grids.search_basis.s": stat("grids.search_basis").total,
        "grids.search_basis.max_s": stat("grids.search_basis").max_time,
        "grids.certify.calls": certify.calls,
        "grids.certify.s": certify.total,
        "grids.certify.ok_ratio": ratio(certify.ok, certify.calls),
        "reduction.build.s": stat("reduction.build").total,
        "reduction.gadget.s": stat("reduction.gadget").total,
        "reduction.sat.s": stat("reduction.sat").total,
        "reduction.search.s": stat("reduction.search").total,
        "reduction.search.verify_calls": tracer.within.get(
            ("detection.verify", "reduction.search"), 0),
        "cli.self_s": item.self_time,
    }
