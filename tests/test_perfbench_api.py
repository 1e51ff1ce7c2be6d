"""The speclab names and call shapes that the benchmark in perfbench/ uses.

The benchmark imports speclab's modules and calls their functions by
name, so removing or re-shaping one of them breaks the benchmark without
breaking any other test. These tests load the benchmark's tracing and
workload modules by path and check each name and call against speclab.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from speclab import bench, corpus, distill, lm, specdec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The speclab modules workloads.py imports, by the names it uses for them.
MODULES = {"bench": bench, "corpus": corpus, "distill": distill, "lm": lm, "specdec": specdec}


def load_by_path(name: str):
    module_name = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[module_name]
    return module


def test_every_traced_function_and_method_is_callable():
    tracing = load_by_path("tracing")
    assert tracing.FUNCTIONS
    for name, fn in tracing.FUNCTIONS.items():
        assert callable(fn), name
    for name, (cls, attr) in tracing.METHODS.items():
        assert callable(getattr(cls, attr, None)), name


def module_calls(tree: ast.AST):
    """``(module, name, call)`` for each ``module.name(...)`` call on a speclab module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES):
            yield node.func.value.id, node.func.attr, node


def test_workload_calls_bind_to_speclab_signatures():
    load_by_path("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            assert hasattr(MODULES[node.value.id], node.attr), f"{node.value.id}.{node.attr}"
    bound = set()
    for module, name, call in module_calls(tree):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            continue
        # A `**mapping` argument adds keywords the source does not name.
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        signature = inspect.signature(getattr(MODULES[module], name))
        try:
            signature.bind_partial(*[None] * len(call.args), **keywords)
            if not any(kw.arg is None for kw in call.keywords):
                signature.bind(*[None] * len(call.args), **keywords)
        except TypeError as exc:
            pytest.fail(f"workloads.py line {call.lineno}: {module}.{name}{signature}: {exc}")
        bound.add(f"{module}.{name}")
    assert {"distill.make_kd_dataset", "bench.run_sweep"} <= bound
