"""Digests of the benchmark workloads' reports, to show that two checkouts
report alike.

    python3 tools/report_digests.py ROOT --seed S [--items] WORKLOAD...

ROOT is the checkout whose ``src/errold`` is run.  The items of each
workload come from this checkout's ``perfbench/workloads.py``, built into a
work directory.  Each item is one in-process call of ``errold.cli.main(argv)``;
its argv is recorded with the work directory replaced by ``$WORK``, so no
digest depends on where that directory is.  For each workload the script
prints one line: the workload, a sha256 over (argv, exit code, stdout) of
every item in order, and the summed ``nodes-explored`` of the reports.  With
``--items`` it prints one line per item instead: the workload, the exit
code, the sha256 of stdout and the argv.  Workloads are those of
``workloads.WORKLOADS`` plus ``grid-sweep``, which runs ``grid-search`` on
SQR, TRI and KNG at every ``--max-index`` from 1 to 18.  Run it on two
checkouts and diff the output.

``tests/report_digests.txt`` is the ``--items`` output for seed 0 over every
workload; a change that alters reports on purpose regenerates it with

    python3 tools/report_digests.py . --seed 0 --items \\
        solve roundtrip enum-classes enum-filter grid grid-sweep \\
        > tests/report_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402

WORKDIR = os.path.join(tempfile.gettempdir(), "errold-report-digests")
WORK_TOKEN = "$WORK"
ALL = workloads.WORKLOADS + ("grid-sweep",)
GRID_SWEEP = [("grid-search", "--grid", grid, "--max-index", str(index))
              for grid in ("SQR", "TRI", "KNG") for index in range(1, 19)]


def run(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except SystemExit as exc:      # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def item_results(cli, name: str, seed: int, workdir: str):
    """(argv with workdir as WORK_TOKEN, exit code, stdout) of each item of
    one workload, whose input files are written into workdir."""
    if name == "grid-sweep":
        commands = GRID_SWEEP
    else:
        commands = [item.argv for item in workloads.build(name, seed, workdir)]
    for argv in commands:
        rc, out = run(cli, argv)
        yield tuple(a.replace(workdir, WORK_TOKEN) for a in argv), rc, out


def item_lines(cli, name: str, seed: int, workdir: str) -> list[str]:
    """One "<workload> <exit code> <sha256 of stdout> <argv>" line per item."""
    return [f"{name} {rc} {hashlib.sha256(out.encode()).hexdigest()} {' '.join(argv)}"
            for argv, rc, out in item_results(cli, name, seed, workdir)]


def digest(results) -> tuple[str, int]:
    h = hashlib.sha256()
    nodes = 0
    for argv, rc, out in results:
        h.update(repr((argv, rc, out)).encode())
        for line in out.splitlines():
            if line.startswith("nodes-explored: "):
                nodes += int(line.split(": ")[1])
    return h.hexdigest(), nodes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="checkout whose src/errold is run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--items", action="store_true",
                    help="one line per item instead of one per workload")
    ap.add_argument("workload", nargs="+", choices=ALL)
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import errold.cli
    if not os.path.abspath(errold.__file__).startswith(src + os.sep):
        raise SystemExit(f"errold imported from {errold.__file__}, not from {src}")
    for name in args.workload:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(WORKDIR)
        if args.items:
            for line in item_lines(errold.cli, name, args.seed, WORKDIR):
                print(line)
        else:
            sha, nodes = digest(item_results(errold.cli, name, args.seed, WORKDIR))
            print(f"{name} {sha} nodes {nodes}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
