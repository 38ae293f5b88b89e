"""Benchmark of the errold command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Each item of a workload is one in-process call to ``errold.cli.main(argv)``
on inputs generated from the seed (see ``workloads.py``), so it covers the
whole command path: file parsing, sha256 digests, the search and the report.
The workload runs in passes over all its items, serially, until ``--seconds``
have gone by (at least three passes).  The first pass's reports go through
the checker; every later pass must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

    wall_s       time to answer every item once: the sum over items of the
                 item's median time across passes
    setup_s      median over five fresh interpreters of start-up, ``import
                 errold`` and generating and writing the inputs
    peak_rss_mb  peak resident set size of the benchmark process
    ok_ratio     item runs that answered correctly, over item runs attempted

``--trace 1`` prints the per-layer metrics instead: two untraced passes,
then two passes with the tracer of ``tracer.py`` installed, which must give
identical reports and identical counts.  The counts are also compared with
those of the last traced run of the same sources, workload and seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run metadata (per-item
times and node counts, pass times, the commit, the Python version, the CPU
count) and the raw spans of the traced passes are written to
``perfbench/out/``.  ``--workload all`` runs every workload in a fresh
process, one after the other, and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
MAX_PASSES = 50
SETUP_SAMPLES = 5
TRACE_PASSES = 2
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "graph.init.calls": "count", "graph.init.s": "s", "graph.dist2.s": "s",
    "graph.four_cycles.s": "s",
    "detection.exists.calls": "count", "detection.exists.s": "s",
    "detection.exists.pass_ratio": "ratio", "detection.verify.calls": "count",
    "detection.verify.s": "s", "detection.verify.ok_ratio": "ratio",
    "solver.solve.s": "s", "solver.nodes": "count", "solver.nodes_per_s": "1/s",
    "extremal.labeled.count": "count", "extremal.labeled.s": "s",
    "extremal.canonical.calls": "count", "extremal.canonical.s": "s",
    "extremal.class_ratio": "ratio",
    "grids.lattices": "count", "grids.search_basis.s": "s",
    "grids.search_basis.max_s": "s", "grids.certify.calls": "count",
    "grids.certify.s": "s", "grids.certify.ok_ratio": "ratio",
    "reduction.build.s": "s", "reduction.gadget.s": "s", "reduction.sat.s": "s",
    "reduction.search.s": "s", "reduction.search.verify_calls": "count",
    "cli.self_s": "s", "trace.overhead_ratio": "ratio",
}
# Counts that must repeat exactly between two runs of one commit and seed.
REPEAT_COUNTS = ("solver.nodes", "extremal.labeled.count",
                 "extremal.canonical.calls", "graph.init.calls",
                 "detection.verify.calls", "grids.certify.calls")


def import_program():
    """Import errold from the checkout's own ``src`` and return its cli."""
    sys.path.insert(0, SRC)
    import errold.cli
    if not os.path.abspath(errold.__file__).startswith(SRC + os.sep):
        raise ImportError(f"errold imported from {errold.__file__}, not from {SRC}")
    return errold.cli


class Passes:
    """Runs a workload's items in passes and keeps times and verdicts."""

    def __init__(self, cli, items, checker):
        self.cli, self.items, self.checker = cli, items, checker
        self.times: list[list[float]] = [[] for _ in items]
        self.first: list[tuple | None] = [None] * len(items)
        self.verdicts: list[list[str]] = [[] for _ in items]
        self.pass_walls: list[float] = []
        self.attempted = self.failed = 0
        self.wrong: list[str] = []

    def call(self, item):
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(item.argv))
        except SystemExit as exc:      # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:              # a crash is a failed item, not the end
            rc = "crash"
            buf.write(traceback.format_exc())
        return rc, buf.getvalue(), time.perf_counter() - start

    def run(self, wrap=None) -> list[tuple[str, int, str]]:
        """One pass over every item; returns (command, exit, report) each.
        ``wrap(key, func, item)`` lets the tracer put a span round each call."""
        reports = []
        wall = 0.0
        for i, item in enumerate(self.items):
            if wrap is None:
                rc, out, elapsed = self.call(item)
            else:
                rc, out, elapsed = wrap(item.key, self.call, item)
            wall += elapsed
            self.times[i].append(elapsed)
            self.attempted += 1
            if self.first[i] is None:
                self.first[i] = (rc, out)
                self.verdicts[i] = problems = self.checker(item, rc, out)
                if problems and rc in (0, 1):
                    self.wrong.append(f"{item.key}: {'; '.join(problems)}")
            elif (rc, out) != self.first[i]:
                problems = ["report differs from the first pass"]
                self.wrong.append(f"{item.key}: {problems[0]}")
            else:
                problems = self.verdicts[i]
            if problems:
                self.failed += 1
            reports.append((item.argv[0], rc, out))
        self.pass_walls.append(wall)
        return reports

    def item_medians(self) -> list[float]:
        return [statistics.median(t) for t in self.times]


def node_counts(passes: Passes) -> list[int | None]:
    out = []
    for first in passes.first:
        nodes = None
        for line in first[1].splitlines():
            if line.startswith("nodes-explored: "):
                nodes = int(line.split(": ")[1])
        out.append(nodes)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "errold"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import errold and write the
    workload's inputs, then exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", workdir,
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.small:
            cmd.append("--small")
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantise the samples; a timer thread enforces the timeout instead.
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
            samples.append(time.perf_counter() - start)
        finally:
            watchdog.cancel()
            shutil.rmtree(workdir, ignore_errors=True)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return samples


def check_repeat(args, counts: dict) -> list[str]:
    """Compare the exact-repeat counts with the last traced run of the same
    sources, workload and seed, then record these."""
    tag = f"{args.workload}-seed{args.seed}" + ("-small" if args.small else "")
    path = os.path.join(OUT, f"counts-{tag}.json")
    digest = source_digest()
    drift = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before.get("source") == digest:
            drift = [f"{k}: {before['counts'].get(k)} before, {v} now"
                     for k, v in counts.items() if before["counts"].get(k) != v]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"source": digest, "counts": counts}, fh, indent=1)
    return drift


def measure(args, cli, checker, items, meta) -> tuple[Passes, dict]:
    passes = Passes(cli, items, checker)
    if not args.trace:
        start = time.perf_counter()
        while len(passes.pass_walls) < MAX_PASSES:
            passes.run()
            done = len(passes.pass_walls)
            elapsed = time.perf_counter() - start
            if done >= MIN_PASSES and \
                    elapsed + statistics.median(passes.pass_walls) > args.seconds:
                break
        metrics = {
            "wall_s": sum(passes.item_medians()),
            "setup_s": statistics.median(meta["setup_samples_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (passes.attempted - passes.failed) / passes.attempted,
        }
        return passes, metrics

    for _ in range(TRACE_PASSES):
        passes.run()
    per_pass, spans = [], []
    for _ in range(TRACE_PASSES):
        tr = tracer.Tracer()
        with tr:
            reports = passes.run(wrap=tr.run_item)
        per_pass.append(tracer.layer_metrics(tr, reports))
        spans.append(tr.spans)
    untraced = statistics.median(passes.pass_walls[:TRACE_PASSES])
    traced = statistics.median(passes.pass_walls[TRACE_PASSES:])
    metrics = {k: per_pass[0][k] if PER_LAYER_UNITS[k] == "count"
               else statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = traced / untraced
    counts = {k: per_pass[0][k] for k in REPEAT_COUNTS}
    drift = [f"{k}: {per_pass[0][k]} then {p[k]} in one run"
             for p in per_pass[1:] for k in REPEAT_COUNTS if p[k] != per_pass[0][k]]
    drift += check_repeat(args, counts)
    meta["repeat_counts"] = counts
    meta["repeat_drift"] = drift
    passes.wrong.extend(f"count drift: {d}" for d in drift)
    with open(os.path.join(OUT, f"{meta['tag']}-spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": spans}, fh)
    return passes, metrics


def run_workload(args) -> int:
    cli = import_program()
    import check
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    meta = {"tag": tag, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "small": args.small,
            "commit": git_commit(), "source": source_digest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    if not args.trace:
        meta["setup_samples_s"] = measure_setup(args)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        items = workloads.build(args.workload, args.seed, workdir, args.small)
        passes, metrics = measure(args, cli, check.check, items, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {"correct": not passes.wrong, "attempted": passes.attempted,
              "failed": passes.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    nodes = node_counts(passes)
    meta["pass_walls_s"] = passes.pass_walls
    meta["items"] = [{"key": item.key, "median_s": statistics.median(t), "times_s": t,
                      "exit": first[0], "nodes": n, "problems": v}
                     for item, t, first, n, v in zip(passes.items, passes.times, passes.first,
                                                     nodes, passes.verdicts)]
    meta["wrong"] = passes.wrong
    meta["result"] = result
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    for line in passes.wrong:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, serially; prints a table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["workloads"][name] = res
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        fail_ratio = res["failed"] / res["attempted"]
        print(f"{name:13s} {'fail_ratio':28s} {fail_ratio:12.6g} ratio")
        for metric, m in res["metrics"].items():
            print(f"{name:13s} {metric:28s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the self-test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import errold, write the inputs into DIR and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs a single workload")
    try:
        if args.setup_only:
            import_program()
            workloads.build(args.workload, args.seed, args.setup_only, args.small)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
