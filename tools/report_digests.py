"""One digest per benchmark workload, to show that two checkouts report alike.

    python3 tools/report_digests.py ROOT --seed S WORKLOAD...

ROOT is the checkout whose ``src/errold`` is run.  The items of each
workload come from this checkout's ``perfbench/workloads.py``, built into one
fixed directory, so two checkouts see the same file paths.  Each item is one
in-process call of ``errold.cli.main(argv)``.  For each workload the script
prints one line: the workload, a sha256 over (argv, exit code, stdout) of
every item in order, and the summed ``nodes-explored`` of the reports.
Workloads are those of ``workloads.WORKLOADS`` plus ``grid-sweep``, which
runs ``grid-search`` on SQR, TRI and KNG at every ``--max-index`` from 1 to
18.  Run it on two checkouts and diff the output.
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


def digest(cli, commands) -> tuple[str, int]:
    h = hashlib.sha256()
    nodes = 0
    for argv in commands:
        rc, out = run(cli, argv)
        h.update(repr((tuple(argv), rc, out)).encode())
        for line in out.splitlines():
            if line.startswith("nodes-explored: "):
                nodes += int(line.split(": ")[1])
    return h.hexdigest(), nodes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="checkout whose src/errold is run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workload", nargs="+",
                    choices=workloads.WORKLOADS + ("grid-sweep",))
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import errold.cli
    if not os.path.abspath(errold.__file__).startswith(src + os.sep):
        raise SystemExit(f"errold imported from {errold.__file__}, not from {src}")
    for name in args.workload:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(WORKDIR)
        if name == "grid-sweep":
            commands = GRID_SWEEP
        else:
            commands = [item.argv for item in workloads.build(name, args.seed, WORKDIR)]
        sha, nodes = digest(errold.cli, commands)
        print(f"{name} {sha} nodes {nodes}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
