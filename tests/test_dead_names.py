"""Every module-level name of the package is used somewhere, and so is
every method and property of its module-level classes.

A function, class or constant defined at the top of a module under
``src/logdescent``, or a method or property (dunders excluded) defined in
the body of such a class, must be referenced outside its own definition:
in the package, in the tests or in the benchmark harness. Name lookups,
attribute lookups, ``from ... import`` names and string constants that
spell a dotted name (the tracer's targets) count as references; comments
and docstrings do not.
"""

import ast
import os
import re

import pytest

import logdescent

PACKAGE = os.path.dirname(os.path.abspath(logdescent.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _definitions(tree):
    """Module-level names with the nodes that bind them."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for t in targets:
            for n in ast.walk(t):
                if isinstance(n, ast.Name):
                    out[n.id] = n
    return {k: v for k, v in out.items() if not (k.startswith("__") and k.endswith("__"))}


def _methods(tree):
    """(class, name) of each method and property of the module-level classes."""
    return [(cls.name, node.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _references(tree, skip):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node not in skip:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def _python_files():
    for top in SEARCHED:
        for dirpath, _, files in os.walk(top):
            for f in files:
                if f.endswith(".py"):
                    yield os.path.join(dirpath, f)


@pytest.fixture(scope="module")
def references():
    refs = set()
    for path in _python_files():
        tree = _parse(path)
        skip = set()
        if os.path.dirname(path) == PACKAGE:
            skip = {n for n in _definitions(tree).values() if isinstance(n, ast.Name)}
        refs |= _references(tree, skip)
    return refs


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_module_level_names_are_referenced(module, references):
    defined = _definitions(_parse(os.path.join(PACKAGE, module)))
    dead = sorted(name for name in defined if name not in references)
    assert not dead, f"{module} defines names that nothing references: {dead}"


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_methods_are_referenced(module, references):
    methods = _methods(_parse(os.path.join(PACKAGE, module)))
    dead = sorted(f"{cls}.{name}" for cls, name in methods if name not in references)
    assert not dead, f"{module} defines methods that nothing references: {dead}"
