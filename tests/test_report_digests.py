"""Byte identity of reports: every item of the benchmark workloads and of
the grid-search sweep, run at seed 0, must give the exit code and the
sha256 of stdout recorded in report_digests.txt.  A change that alters
reports on purpose regenerates that file (see tools/report_digests.py) and
names the changed items."""

import importlib.util
from pathlib import Path

import errold.cli

HERE = Path(__file__).resolve().parent
TOOL = HERE.parent / "tools" / "report_digests.py"
RECORDED = HERE / "report_digests.txt"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def by_item(lines):
    # "<workload> <exit code> <sha256> <argv...>", keyed by workload and argv
    items = {}
    for line in lines:
        name, rc, sha, argv = line.split(" ", 3)
        items[name, argv] = (rc, sha)
    return items


def test_reports_match_recorded_digests(tmp_path):
    tool = load_tool()
    lines = []
    for name in tool.ALL:
        workdir = tmp_path / name
        workdir.mkdir()
        lines += tool.item_lines(errold.cli, name, 0, str(workdir))
    recorded = RECORDED.read_text().splitlines()
    want, got = by_item(recorded), by_item(lines)
    differ = [f"{name}: {argv}: recorded {want.get((name, argv))}, "
              f"got {got.get((name, argv))}"
              for name, argv in sorted(want.keys() | got.keys())
              if want.get((name, argv)) != got.get((name, argv))]
    assert not differ, "\n".join(differ)
    assert len(recorded) == len(lines)    # no item recorded or run twice
