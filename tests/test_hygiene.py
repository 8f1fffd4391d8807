"""Source rules of the package, read from the syntax tree of each module.

`src/gaussorbits` depends on the standard library and `click` only, and
it computes without floating point: no float literal and no `float`.
"""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parents[1] / "src" / "gaussorbits").glob("*.py"))
ALLOWED = frozenset(sys.stdlib_module_names) | {"click"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_click_or_relative(path):
    outside = []
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [(node.lineno, n) for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    found = [
        (node.lineno, ast.unparse(node))
        for node in _nodes(path)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, ast.Name) and node.id == "float"
    ]
    assert found == []
