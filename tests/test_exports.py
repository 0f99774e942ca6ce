"""Every name in an `__all__` of betakotz resolves, so `import *` works,
and every function the benchmark traces exists under its layer."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import betakotz
from betakotz import risk

MODULES = ["betakotz"] + [
    f"betakotz.{m.name}" for m in pkgutil.iter_modules(betakotz.__path__)
]
BENCH_RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_root_lists_its_names():
    assert len(set(betakotz.__all__)) == len(betakotz.__all__)
    assert set(betakotz.__all__) <= set(dir(betakotz))


def test_package_names_follow_their_layer(monkeypatch):
    # Looked up on each access, never cached: a layer function replaced
    # (as the benchmark's tracer does) shows through the package root,
    # and so does its restoration.
    original = risk.report
    monkeypatch.setattr(risk, "report", len)
    assert betakotz.report is len
    monkeypatch.undo()
    assert betakotz.report is original


def _traced_functions():
    # Read the literal without importing the benchmark script.
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS in {BENCH_RUN}")


def test_benchmark_traced_functions_exist():
    # A traced name that no longer exists reads as 0 calls in the
    # per-layer trace instead of failing; the tracer patches public
    # functions defined in the layer's own module.
    missing = []
    for layer, name in _traced_functions():
        module = importlib.import_module(f"betakotz.{layer}")
        fn = getattr(module, name, None)
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            missing.append((layer, name))
    assert missing == []
