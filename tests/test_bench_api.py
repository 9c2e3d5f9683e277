"""The package API that the benchmark under perfbench/ relies on.

The benchmark imports names from poissonore and keys its layer trace on
module functions and methods by name.  Renaming or deleting one of them
would only surface when the benchmark runs; these tests catch it here.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    return next(
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == name
    )


def _resolve(module: str, name: str) -> object:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def test_benchmark_imports_resolve():
    checked = 0
    for path in sorted(BENCH.rglob("*.py")):
        tree = _tree(path)
        modules = {}  # local name -> poissonore module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("poissonore"):
                for alias in node.names:
                    obj = _resolve(node.module, alias.name)
                    checked += 1
                    if isinstance(obj, types.ModuleType):
                        modules[alias.asname or alias.name] = obj
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("poissonore"):
                        importlib.import_module(alias.name)
                        checked += 1
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                assert hasattr(modules[node.value.id], node.attr), (path.name, node.attr)
                checked += 1
    assert checked > 20


def test_layer_trace_keys_resolve():
    trace = _tree(BENCH / "layertrace.py")
    layers = ast.literal_eval(_assigned(trace, "LAYERS"))
    table = _assigned(_tree(BENCH / "run.py"), "PER_LAYER_KEYS")
    keys = {k.value for row in table.values for k in row.elts[1].elts}
    keys |= {k.value for k in _assigned(trace, "special").keys}
    keys |= {
        n.args[0].value
        for n in ast.walk(trace)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_inside"
    }
    assert {"spectra.darboux_search", "groebner.buchberger", "groebner.reduce_full"} <= keys
    for key in keys:
        layer, name, *rest = key.split(".")
        module = importlib.import_module(layers[layer])
        obj = getattr(module, name)
        # the trace wraps only what the layer module itself defines
        assert obj.__module__ == module.__name__, key
        if rest and isinstance(obj, type):
            assert callable(getattr(obj, rest[0])), key
