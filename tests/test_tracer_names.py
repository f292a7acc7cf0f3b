"""Every package name the benchmark's tracer patches must exist.

``perfbench/tracer.py`` wraps functions on the module attribute their callers
look them up through. A refactor that drops or moves one of those names breaks
only the traced benchmark run, which the unit suite does not start; this test
loads the tracer as it is and resolves each of its names on the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_tracer().SPANS
#: The two scipy entry points the tracer wraps for counts only.
SOLVERS = [("volatility", "minimize"), ("election", "linprog")]


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _ in SPANS] + SOLVERS)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"adaptive_conformal.{module_name}")
    assert callable(getattr(module, attr))
