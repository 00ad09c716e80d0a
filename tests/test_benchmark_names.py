"""Every package name that the benchmark reads still exists.

``perfbench/tracer.py`` rebinds package functions by name and
``perfbench/workloads.py`` calls them as ``<module>.<name>``. A refactor that
removes or renames one of them passes every other test and breaks only the
benchmark, so this test resolves each of those names. It only reads
``perfbench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("modname, qualname", tracer.SPANS,
                         ids=[f"{m}.{q}" for m, q in tracer.SPANS])
def test_traced_spans_resolve(modname, qualname):
    importlib.import_module("logdescent." + modname)
    owner, attr = tracer._resolve(modname, qualname)
    assert attr in vars(owner), f"{modname}.{qualname}"


def test_traced_caches_and_counters_exist():
    for modname, cache_name in tracer.CACHES.values():
        module = importlib.import_module("logdescent." + modname)
        assert isinstance(getattr(module, cache_name, None), dict), cache_name
    FieldElement = importlib.import_module("logdescent.qfield").FieldElement
    for dunder in tracer.FIELD_OPS:
        assert dunder in vars(FieldElement), dunder
    assert "__add__" in vars(importlib.import_module("logdescent.ellcurve").Point)


def test_workload_attribute_reads_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "logdescent":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    "logdescent." + alias.name)
    assert modules
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert reads
    missing = sorted(f"{m}.{a}" for m, a in reads if not hasattr(modules[m], a))
    assert not missing
