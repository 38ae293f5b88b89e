"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at its reduced size, with and without tracing, and
checks that every metric ``BENCHMARK.json`` names is emitted with its unit;
checks that the checker rejects corrupted reports, that the tracer puts
every patched function back, and that the benchmark fails cleanly in a
directory without the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from errold import cli  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def scratch_dir(test: unittest.TestCase) -> str:
    """A temporary directory inside the checkout, removed after the test."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(dir=OUT)
    test.addCleanup(shutil.rmtree, path)
    return path


def call(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--small")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class CheckerRejects(unittest.TestCase):
    def setUp(self):
        self.workdir = scratch_dir(self)

    def first(self, workload, command=None):
        items = workloads.build(workload, 0, self.workdir, small=True)
        item = next(i for i in items if command is None or i.argv[0] == command)
        rc, out = call(item.argv)
        self.assertEqual(check.check(item, rc, out), [], out)
        return item, rc, out

    def assertRejected(self, item, rc, out):
        self.assertNotEqual(check.check(item, rc, out), [], out)

    def test_witness_with_one_vertex_removed(self):
        item, rc, out = self.first("solve")
        lines = out.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("witness: "))
        lines[i] = " ".join(lines[i].split()[:-1])
        self.assertRejected(item, rc, "\n".join(lines) + "\n")

    def test_larger_optimum_and_witness(self):
        item, rc, out = self.first("solve")
        f = check.report_fields(out)
        witness = {int(v) for v in f["witness"][0].split()}
        extra = min(set(range(14)) - witness)
        bigger = " ".join(map(str, sorted(witness | {extra})))
        out = out.replace(f"witness: {f['witness'][0]}", f"witness: {bigger}")
        out = out.replace(f"optimum: {f['optimum'][0]}", f"optimum: {len(witness) + 1}")
        self.assertRejected(item, rc, out)

    def test_error_exit(self):
        item, _, _ = self.first("solve")
        self.assertRejected(item, 2, "command: solve\nerror: budget\nstatus: error\n")

    def test_flipped_satisfiability(self):
        item, rc, out = self.first("roundtrip", "roundtrip")
        flipped = out.replace("satisfiable: true", "satisfiable: false")
        self.assertNotEqual(flipped, out)
        self.assertRejected(item, rc, flipped)

    def test_wrong_class_count(self):
        item, rc, out = self.first("enum-classes")
        self.assertRejected(item, rc, out.replace("count: 2", "count: 3"))

    def test_non_canonical_class(self):
        item, rc, out = self.first("enum-classes")
        hexes = check.report_fields(out)["graph"]
        n, m, hx = hexes[0].split()
        self.assertRejected(item, rc, out.replace(hx, format(int(hx, 16) + 1, f"0{len(hx)}x")))

    def test_seven_vertex_minimum(self):
        item = workloads.enumerate_items([(7, 12, "err")])[0]
        rc, out = call(item.argv)
        self.assertEqual(check.check(item, rc, out), [], out)
        line = next(x for x in out.splitlines() if x.startswith("graph: "))
        self.assertRejected(item, rc, out.replace("count: 2", "count: 1").replace(line + "\n", ""))

    def test_wrong_density(self):
        item, rc, out = self.first("grid")
        self.assertRejected(item, rc, out.replace("density: 7/8", "density: 3/4"))

    def test_dropped_pattern_detector(self):
        item, rc, out = self.first("grid")
        head, pattern = out.split("## pattern\n")
        lines = pattern.splitlines()
        self.assertRejected(item, rc, head + "## pattern\n" + "\n".join(lines[:-1]) + "\n")


class TracerRestores(unittest.TestCase):
    def test_every_binding_site_patched_and_restored(self):
        import errold
        from errold import detection, graph, reduction, solver
        originals = (detection.verify, graph.Graph.__init__, cli.minimum_detector_set)
        tr = tracer.Tracer()
        with tr:
            self.assertIsNot(solver.verify, originals[0])
            self.assertIs(solver.verify, reduction.verify)
            self.assertIs(errold.verify, detection.verify)
            self.assertIsNot(cli.minimum_detector_set, originals[2])
            self.assertIsNot(graph.Graph.__init__, originals[1])
            tr.run_item("k", call, ("solve", "--graph", self.petersen(), "--kind", "old"))
        self.assertEqual((detection.verify, graph.Graph.__init__, cli.minimum_detector_set),
                         originals)
        self.assertIs(solver.verify, originals[0])
        self.assertIs(reduction.verify, originals[0])
        self.assertGreater(tr.stats["detection.verify"].calls, 0)
        names = [s["name"] for s in tr.spans]
        self.assertEqual(names[0], "item")
        self.assertIn("solver.solve", names)

    def petersen(self) -> str:
        path = os.path.join(scratch_dir(self), "p.el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.edge_list_text(*workloads.petersen_edges()))
        return path


class StrippedCheckout(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = scratch_dir(self)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
