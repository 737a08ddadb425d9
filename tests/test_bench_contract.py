"""The names the benchmark reaches in resmat still exist.

bench/spans.py wraps (module, name) pairs by attribute lookup, and
bench/run.py:standalone_layers imports per-point functions to time them.
A rename in resmat would break the traced benchmark run, not this suite,
so the contract is checked here.  spans.py imports only the standard
library and is loaded by path.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_targets():
    return [(module, name) for module, name, *_ in load_spans().TARGETS]


def standalone_imports():
    """(module, name) of every `from resmat... import` in standalone_layers."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "standalone_layers"
    )
    return [
        (node.module, alias.name)
        for node in ast.walk(body)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("resmat")
        for alias in node.names
    ]


def test_standalone_layers_imports_six_names():
    assert len(standalone_imports()) == 6


CONTRACT = sorted(set(span_targets() + standalone_imports()))


@pytest.mark.parametrize("module, name", CONTRACT, ids=[f"{m}.{n}" for m, n in CONTRACT])
def test_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))
