"""Internal invariants raise explicit exceptions, which survive python -O.

Each module of the package may keep at most its budget of bare assert
statements; lower a budget when a module drops one, never raise it.
"""

import ast
import os

import pytest

import logdescent

PACKAGE = os.path.dirname(os.path.abspath(logdescent.__file__))

BUDGET = {"tate.py": 3}


def _count_asserts(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    return sum(isinstance(node, ast.Assert) for node in ast.walk(tree))


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_assert_budget(module):
    n = _count_asserts(os.path.join(PACKAGE, module))
    assert n <= BUDGET.get(module, 0), f"{module} has {n} asserts, budget {BUDGET.get(module, 0)}"
