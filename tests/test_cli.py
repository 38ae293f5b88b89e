import ast
import builtins
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import errold
from errold.cli import main
from errold.graph import parse_edge_list, serialize_edge_list
from errold.families import (petersen_graph, complete_graph, heawood_graph,
                             circulant_graph)
from errold.detection import serialize_detector_set

PATTERN_DIR = Path(__file__).resolve().parent.parent / "patterns"


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["petersen"] = tmp_path / "petersen.el"
    paths["petersen"].write_text(serialize_edge_list(petersen_graph()))
    paths["k4"] = tmp_path / "k4.el"
    paths["k4"].write_text(serialize_edge_list(complete_graph(4)))
    paths["all10"] = tmp_path / "all10.ds"
    paths["all10"].write_text(serialize_detector_set(range(10)))
    paths["all4"] = tmp_path / "all4.ds"
    paths["all4"].write_text(serialize_detector_set(range(4)))
    paths["cnf"] = tmp_path / "f.cnf"
    paths["cnf"].write_text("p cnf 3 1\n1 -2 3 0\n")
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def report_dict(out):
    d = {}
    for line in out.splitlines():
        if line.startswith("#") or ": " not in line:
            continue
        k, v = line.split(": ", 1)
        d[k] = v
    return d


def test_verify_pass(capsys, files):
    code, out = run(capsys, "verify", "--graph", files["petersen"],
                    "--set", files["all10"], "--kind", "err")
    rep = report_dict(out)
    assert code == 0 and rep["status"] == "ok" and rep["pass"] == "true"
    assert rep["digest-graph"].startswith("sha256:")
    assert rep["digest-set"].startswith("sha256:")


def test_verify_fail_witness(capsys, files):
    code, out = run(capsys, "verify", "--graph", files["k4"],
                    "--set", files["all4"], "--kind", "err")
    rep = report_dict(out)
    assert code == 1 and rep["status"] == "fail"
    assert rep["pass"] == "false" and rep["witness-pair"] == "0 1" \
        and rep["witness-value"] == "2"


def test_each_input_is_read_once_and_digested(capsys, files, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out = run(capsys, "verify", "--graph", files["petersen"],
                    "--set", files["all10"], "--kind", "err")
    monkeypatch.undo()
    rep = report_dict(out)
    assert code == 0
    for name, path in (("graph", files["petersen"]), ("set", files["all10"])):
        assert opened.count(str(path)) == 1
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert rep[f"digest-{name}"] == f"sha256:{digest}"


# every subcommand that reads a file: BAD marks the input under test, and
# other words that name a `files` fixture entry stand for that file
FILE_COMMANDS = {
    "verify-graph": ["verify", "--graph", "BAD", "--set", "all10", "--kind", "err"],
    "verify-set": ["verify", "--graph", "petersen", "--set", "BAD", "--kind", "err"],
    "exists": ["exists", "--graph", "BAD"],
    "solve": ["solve", "--graph", "BAD", "--kind", "err"],
    "decide": ["decide", "--graph", "BAD", "--kind", "err", "--k", "3"],
    "expand": ["expand", "--graph", "BAD", "--e1", "0", "1", "--e2", "2", "3"],
    "reduce": ["reduce", "--cnf", "BAD"],
    "gadget-check": ["gadget-check", "--cnf", "BAD"],
    "roundtrip": ["roundtrip", "--cnf", "BAD"],
    "grid-certify": ["grid-certify", "--pattern", "BAD"],
    "grid-share": ["grid-share", "--pattern", "BAD"],
    "render": ["render", "--pattern", "BAD", "--window", "4"],
}


@pytest.mark.parametrize("bad", ["missing", "not-utf8"])
@pytest.mark.parametrize("command", list(FILE_COMMANDS))
def test_missing_file_is_error(capsys, files, tmp_path, command, bad):
    path = tmp_path / "bad.input"
    if bad == "not-utf8":
        path.write_bytes(b"\xff\xfe0 1\n")
    argv = [path if a == "BAD" else files.get(a, a) for a in FILE_COMMANDS[command]]
    code, out = run(capsys, *argv)
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error"
    assert rep["command"] == argv[0] and "error" in rep
    assert "Traceback" not in out + capsys.readouterr().err


def test_unknown_flag_exits_two(files):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--graph", str(files["petersen"]), "--bogus", "x"])
    assert exc.value.code == 2


def test_parser_survives_a_rejected_command_line(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--graph", str(files["petersen"]), "--kind", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "solve", "--graph", files["petersen"], "--kind", "err")
    rep = report_dict(out)
    assert code == 0 and rep["command"] == "solve" and rep["optimum"] == "10"
    assert rep["kind"] == "ERR:OLD" and "budget" not in out


def test_search_deeper_than_recursion_limit(capsys, tmp_path):
    # C_n(1,2) is 4-regular, so OLD forces nothing at the root, and the
    # take-first path chooses one vertex per level until nearly all n are
    # chosen; the budget stops it just past the depth where a recursive
    # search would overflow
    depth = sys.getrecursionlimit() + 50
    path = tmp_path / "circulant.el"
    path.write_text(serialize_edge_list(circulant_graph(depth + 50, (1, 2))))
    code, out = run(capsys, "solve", "--graph", path, "--kind", "old",
                    "--budget", depth)
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error"
    assert rep["nodes-explored"] == str(depth) and "budget" in rep["error"]


def test_interrupted_search_exits_two_with_its_best_set(capsys, tmp_path, monkeypatch):
    # Ctrl-C arrives while the search examines its 100th node
    import errold.solver
    hw = tmp_path / "heawood.el"
    hw.write_text(serialize_edge_list(heawood_graph()))
    code, out = run(capsys, "solve", "--graph", hw, "--kind", "old", "--budget", 99)
    budget = report_dict(out)
    assert code == 2 and "best-set" in budget
    examine, calls = errold.solver._examine, []

    def interrupt_at_100(*args):
        calls.append(None)
        if len(calls) == 100:
            raise KeyboardInterrupt
        return examine(*args)

    monkeypatch.setattr(errold.solver, "_examine", interrupt_at_100)
    code, out = run(capsys, "solve", "--graph", hw, "--kind", "old")
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error"
    assert rep["error"].startswith("interrupted after 100 nodes")
    assert rep["nodes-explored"] == "100"
    assert (rep["best-size"], rep["best-set"]) == (budget["best-size"], budget["best-set"])
    assert "Traceback" not in out + capsys.readouterr().err


def test_interrupt_outside_the_serial_search_exits_two(capsys, files, monkeypatch):
    import errold.cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(errold.cli, "minimum_detector_set", interrupt)
    code, out = run(capsys, "solve", "--graph", files["petersen"], "--kind", "err")
    rep = report_dict(out)
    assert code == 2 and rep["command"] == "solve" and rep["status"] == "error"
    assert rep["error"] == "interrupted"


def child_env():
    """The environment for a child Python that imports this errold."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(errold.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize("module", ["errold", "errold.cli"])
def test_python_dash_m_entry_point(module):
    env = child_env()
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and "usage: errold" in proc.stdout


def test_import_does_not_load_the_process_pool():
    # the pool modules are imported only when --jobs starts workers
    env = child_env()
    code = ("import sys, errold.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library():
    # errold is stdlib-only: every absolute import in the package names a
    # standard-library module (relative imports stay inside the package)
    package = Path(errold.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def cli_process(argv, stdout, unbuffered=True):
    """`python -m errold argv` in a child with stdout on the given fd."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "errold", *map(str, argv)],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=env)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("target, argv", [
    ("closed pipe", ["enumerate", "--n", 7, "--m", 11, "--min-degree", 3,
                     "--predicate", "all"]),
    ("/dev/full", ["grid-search", "--grid", "SQR", "--max-index", 4]),
], ids=["closed-pipe", "dev-full"])
def test_unwritable_stdout_exits_two(target, argv, unbuffered):
    # `errold ... | head` after head has gone, and `errold ... > /dev/full`
    if target == "closed pipe":
        read_end, fd = os.pipe()
        os.close(read_end)
    elif os.path.exists(target):
        fd = os.open(target, os.O_WRONLY)
    else:
        pytest.skip(f"no {target} here")
    try:
        proc = cli_process(argv, fd, unbuffered)
        err = proc.communicate(timeout=60)[1]
    finally:
        os.close(fd)
    assert proc.returncode == 2
    assert err.splitlines()[-1] == "status: error"
    assert err.splitlines().count("status: error") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_report_cut_off_midway_gets_no_second_status_line():
    # the reader takes the head of a report larger than the pipe holds and
    # leaves, so the writer fails inside the figure, after `status: ok`
    read_end, write_end = os.pipe()
    proc = cli_process(["render", "--pattern", PATTERN_DIR / "sqr_7_8.pattern",
                        "--window", 400], write_end, unbuffered=False)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        head = reader.read(4096).decode()
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 2
    assert head.splitlines().count("status: ok") == 1 and "status: error" not in head
    assert err.splitlines().count("status: error") == 1 and "Traceback" not in err


def test_unwritable_redirected_stdout_exits_two(capsys, files, monkeypatch):
    # an in-process caller's stdout that refuses the report: exit 2, and the
    # process's own fd 1 is left alone
    class Refusing(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Refusing())
    assert main(["solve", "--graph", str(files["petersen"]), "--kind", "old"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "status: error"
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "g.el", "--kind", "err"],
    ["decide", "--graph", "g.el", "--kind", "err", "--k", "3"],
    ["enumerate", "--n", "4"],
    ["roundtrip", "--cnf", "f.cnf"],
    ["grid-search", "--grid", "SQR", "--max-index", "2"],
])
def test_jobs_below_one_is_a_usage_error(capsys, argv, jobs):
    # enumerate rejects the count; the serial commands take no --jobs at all
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", jobs])
    assert exc.value.code == 2
    if argv[0] == "enumerate":
        assert "positive integer" in capsys.readouterr().err
    else:
        assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "g.el", "--kind", "err"],
    ["decide", "--graph", "g.el", "--kind", "err", "--k", "3"],
    ["roundtrip", "--cnf", "f.cnf"],
    ["grid-search", "--grid", "SQR", "--max-index", "2"],
], ids=lambda argv: argv[0])
def test_serial_commands_take_no_jobs(capsys, argv):
    # one serial search: --jobs is an unrecognised argument there
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decide", "--graph", "petersen", "--kind", "err", "--k", "-1"],
    ["decide", "--graph", "k4", "--kind", "err", "--k", "-1"],   # infeasible
    ["solve", "--graph", "petersen", "--kind", "err", "--budget", "-1"],
    ["enumerate", "--n", "5", "--m", "-5"],
    ["enumerate", "--n", "5", "--min-degree", "-1"],
    ["grid-search", "--grid", "SQR", "--max-index", "-3"],
], ids="_".join)
def test_negative_size_exits_two(capsys, files, argv):
    code, out = run(capsys, *(files.get(word, word) for word in argv))
    rep = report_dict(out)
    assert code == 2 and rep["command"] == argv[0] and rep["status"] == "error"
    assert "Traceback" not in out + capsys.readouterr().err


def test_dead_worker_exits_two(capsys, monkeypatch):
    import errold.extremal
    run_tasks = errold.extremal.run_tasks
    monkeypatch.setattr(errold.extremal, "run_tasks",
                        lambda fn, tasks, jobs: run_tasks(os._exit, [3] * len(tasks), jobs))
    code, out = run(capsys, "enumerate", "--n", "6", "--m", "9", "--min-degree", "3",
                    "--jobs", "2")
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error" and "worker" in rep["error"]


def test_solve_and_decide(capsys, files):
    code, out = run(capsys, "solve", "--graph", files["petersen"], "--kind", "err")
    rep = report_dict(out)
    assert code == 0 and rep["optimum"] == "10"
    code, out = run(capsys, "decide", "--graph", files["petersen"],
                    "--kind", "err", "--k", "9")
    rep = report_dict(out)
    assert code == 1 and rep["answer"] == "false"
    code, out = run(capsys, "solve", "--graph", files["k4"], "--kind", "err")
    rep = report_dict(out)
    assert code == 1 and rep["result"] == "infeasible"


def test_decide_answers_like_minimisation(capsys, tmp_path):
    # decide runs the first-hit decision; its answer must be optimum <= k
    import random
    from errold.detection import kind_from_flag
    from errold.families import random_graph
    from errold.solver import minimum_detector_set
    rng = random.Random(31)
    graph = tmp_path / "g.el"
    outcomes = set()
    for _ in range(12):
        g = random_graph(rng.randint(4, 12), rng.uniform(0.3, 0.8), rng)
        graph.write_text(serialize_edge_list(g))
        for flag in ("old", "redold", "detold", "err"):
            res = minimum_detector_set(g, kind_from_flag(flag))
            for k in range(g.n + 1):
                code, out = run(capsys, "decide", "--graph", graph,
                                "--kind", flag, "--k", k)
                rep = report_dict(out)
                expect = res.status == "optimal" and res.optimum <= k
                assert rep["answer"] == str(expect).lower()
                assert code == (0 if expect else 1)
                assert rep["status"] == ("ok" if expect else "fail")
                assert rep["k"] == str(k) and "optimum" not in rep
                assert ("result" in rep) == (res.status == "infeasible")
                outcomes.add((res.status, expect))
    assert outcomes == {("optimal", True), ("optimal", False), ("infeasible", False)}


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_memory_and_recursion_errors_exit_two(capsys, files, monkeypatch, error):
    import errold.cli

    def fail(g):
        raise error("simulated")

    monkeypatch.setattr(errold.cli, "exists_err_old", fail)
    code, out = run(capsys, "exists", "--graph", files["petersen"])
    rep = report_dict(out)
    assert code == 2 and rep["command"] == "exists" and rep["status"] == "error"
    assert rep["error"] == "simulated"
    assert "Traceback" not in out + capsys.readouterr().err


def test_exists(capsys, files):
    code, out = run(capsys, "exists", "--graph", files["petersen"])
    assert code == 0 and report_dict(out)["exists"] == "true"
    code, out = run(capsys, "exists", "--graph", files["k4"])
    rep = report_dict(out)
    assert code == 1 and rep["witness-cycle"] == "0 1 2 3" and rep["witness-pair"] == "0 2"


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--n", "4")
    rep = report_dict(out)
    assert code == 0 and rep["count"] == "0"


def test_enumerate_parallel_predicate(capsys):
    code, out = run(capsys, "enumerate", "--n", "6", "--m", "9",
                    "--min-degree", "3", "--predicate", "err", "--jobs", "2")
    rep = report_dict(out)
    assert code == 0 and rep["count"] == "0"     # no 6-vertex graph supports


def test_enumerate_outdir(capsys, tmp_path):
    out_dir = tmp_path / "graphs"
    code, out = run(capsys, "enumerate", "--n", "7", "--m", "12",
                    "--min-degree", "3", "--out", out_dir)
    rep = report_dict(out)
    assert code == 0 and rep["count"] == "2"
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 2
    for line in manifest:
        n, m, hexenc = line.split()
        g = parse_edge_list((out_dir / f"graph_{hexenc}.el").read_text())
        assert g.n == int(n) and g.m == int(m)


def test_expand(capsys, tmp_path):
    from errold.families import heawood_graph
    hw = tmp_path / "heawood.el"
    hw.write_text(serialize_edge_list(heawood_graph()))
    code, out = run(capsys, "expand", "--graph", hw, "--e1", "0", "1",
                    "--e2", "2", "3")
    rep = report_dict(out)
    assert code == 0 and rep["quasi-cubic"] == "true" and rep["n"] == "15"
    assert "## graph" in out
    # precondition violation is a usage error
    code, out = run(capsys, "expand", "--graph", hw, "--e1", "0", "1",
                    "--e2", "1", "2")
    assert code == 2


@pytest.mark.parametrize("e1", [("4", "0"), ("-1", "0"), ("0", "-3")], ids="_".join)
def test_expand_rejects_vertex_ids_outside_the_graph(capsys, files, e1):
    code, out = run(capsys, "expand", "--graph", files["k4"], "--e1", *e1,
                    "--e2", "2", "3")
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error"
    assert rep["error"] == f"({e1[0]},{e1[1]}) is not an edge"
    assert "Traceback" not in out + capsys.readouterr().err


def test_reduce_and_gadget_check(capsys, files, tmp_path):
    gfile = tmp_path / "out.el"
    mfile = tmp_path / "out.manifest"
    code, out = run(capsys, "reduce", "--cnf", files["cnf"],
                    "--out-graph", gfile, "--out-manifest", mfile)
    rep = report_dict(out)
    assert code == 0
    assert rep["vertices"] == "83" and rep["edges"] == "170" and rep["K"] == "73"
    g = parse_edge_list(gfile.read_text())
    assert g.n == 83 and g.m == 170
    assert mfile.read_text().startswith("K 73\n")

    code, out = run(capsys, "gadget-check", "--cnf", files["cnf"])
    rep = report_dict(out)
    assert code == 0 and rep["pass"] == "true" and rep["forced-count"] == "70"


def test_roundtrip(capsys, files):
    code, out = run(capsys, "roundtrip", "--cnf", files["cnf"])
    rep = report_dict(out)
    assert code == 0 and rep["equivalent"] == "true" and rep["satisfiable"] == "true"


def test_oversized_roundtrip_is_refused_before_sat(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started before the size guard")
    monkeypatch.setattr("errold.reduction.sat_brute_force", never)
    monkeypatch.setattr("errold.reduction.build_instance", never)
    monkeypatch.setattr("errold.reduction.detector_set_within", never)
    cnf = tmp_path / "big.cnf"
    cnf.write_text("p cnf 26 1\n1 2 3 0\n")   # one variable above the SAT cap
    code, out = run(capsys, "roundtrip", "--cnf", cnf)
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error" and "25 variables" in rep["error"]


def test_roundtrip_beyond_twenty_free_vertices(capsys, tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 6 2\n1 2 3 0\n-4 5 -6 0\n")   # 4N + M = 26 free vertices
    code, out = run(capsys, "roundtrip", "--cnf", cnf)
    rep = report_dict(out)
    assert code == 0 and rep["equivalent"] == "true" and rep["satisfiable"] == "true"


def test_grid_commands(capsys, tmp_path):
    pat = PATTERN_DIR / "sqr_7_8.pattern"
    code, out = run(capsys, "grid-certify", "--pattern", pat)
    rep = report_dict(out)
    assert code == 0 and rep["density"] == "7/8" and rep["pass"] == "true"

    code, out = run(capsys, "grid-share", "--pattern", pat)
    rep = report_dict(out)
    assert code == 0 and rep["share-sum"] == "8"

    code, out = run(capsys, "grid-search", "--grid", "TRI", "--max-index", "7")
    rep = report_dict(out)
    assert code == 0 and rep["density"] == "4/7"
    assert "## pattern" in out

    bad = tmp_path / "bad.pattern"
    bad.write_text("grid SQR\nbasis 2 0 0 2\ndetector 0 0\ndetector 1 1\n")
    code, out = run(capsys, "grid-certify", "--pattern", bad)
    rep = report_dict(out)
    assert code == 1 and rep["pass"] == "false"


def test_grid_share_certifies_once(capsys, monkeypatch):
    from errold import grids
    calls = []
    certify = grids.certify_pattern

    def counting(p):
        calls.append(p)
        return certify(p)

    monkeypatch.setattr(grids, "certify_pattern", counting)
    code, out = run(capsys, "grid-share", "--pattern", PATTERN_DIR / "kng_4_9.pattern")
    rep = report_dict(out)
    assert code == 0 and rep["max-share"] == "9/4" and rep["share-sum"] == "18"
    assert len(calls) == 1


def test_render(capsys):
    pat = PATTERN_DIR / "sqr_7_8.pattern"
    code, out = run(capsys, "render", "--pattern", pat, "--window", "8")
    assert code == 0
    figure = out.split("figure:\n", 1)[1]
    assert figure.count("#") == 56


def test_oversized_pattern_index_exits_two(capsys, tmp_path):
    from errold.grids import MAX_PATTERN_INDEX
    pat = tmp_path / "big.pattern"
    pat.write_text(f"grid SQR\nbasis {MAX_PATTERN_INDEX + 1} 0 0 1\ndetector 0 0\n")
    for cmd in ("grid-certify", "grid-share"):
        code, out = run(capsys, cmd, "--pattern", pat)
        rep = report_dict(out)
        assert code == 2 and rep["status"] == "error" and "index" in rep["error"]


@pytest.mark.parametrize("text", ["n 100000000000\n0 1\n", "0 1\n1 100000000000\n"])
def test_oversized_vertex_count_exits_two(capsys, tmp_path, text):
    graph = tmp_path / "big.el"
    graph.write_text(text)
    code, out = run(capsys, "exists", "--graph", graph)
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error" and "vertex count" in rep["error"]
    assert "Traceback" not in out


def test_oversized_render_window_exits_two(capsys):
    from errold.grids import MAX_RENDER_WINDOW
    pat = PATTERN_DIR / "sqr_7_8.pattern"
    code, out = run(capsys, "render", "--pattern", pat,
                    "--window", str(MAX_RENDER_WINDOW + 1))
    rep = report_dict(out)
    assert code == 2 and rep["status"] == "error" and "window" in rep["error"]


def test_reports_are_reproducible(capsys, files):
    _, out1 = run(capsys, "verify", "--graph", files["petersen"],
                  "--set", files["all10"], "--kind", "err")
    _, out2 = run(capsys, "verify", "--graph", files["petersen"],
                  "--set", files["all10"], "--kind", "err")
    assert out1 == out2
