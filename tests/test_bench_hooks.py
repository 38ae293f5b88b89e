"""The benchmark's tracer patches errold functions by name; every name it
lists must still resolve, so a rename fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracer().TARGETS, ids=lambda t: t[2])
def test_tracer_target_resolves(target):
    module_name, attr = target[0], target[1]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_verify_is_bound_where_the_self_test_reads_it(monkeypatch):
    # the self-test counts detection.verify through these from-import copies
    # while it solves Petersen for OLD, so the up-front check must stay
    import errold.detection
    import errold.reduction
    import errold.solver
    from errold.families import petersen_graph
    verify = errold.detection.verify
    assert errold.solver.verify is verify
    assert errold.reduction.verify is verify
    calls = []
    monkeypatch.setattr(errold.solver, "verify",
                        lambda *args: calls.append(args) or verify(*args))
    errold.solver.minimum_detector_set(petersen_graph(), errold.detection.OLD)
    assert calls
