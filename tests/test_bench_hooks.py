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
