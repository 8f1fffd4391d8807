"""Source rules of the package, read from the syntax tree of each module.

`src/gaussorbits` depends on the standard library and `click` only, it
computes without floating point (no float literal and no `float`), and
it holds no public name that only the tests use.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src" / "gaussorbits").glob("*.py"))
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


def _references(tree):
    # Every name a tree reads or imports, and every attribute it reads.
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def _is_command(node):
    # A click command or group is called by click, not by name.
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _public_definitions(tree):
    # (name, node) of each public module-level function, class and
    # constant, and of each public method.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_") and not _is_command(node):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def test_every_public_name_has_a_caller_outside_the_tests():
    users = MODULES + sorted((ROOT / "bench").glob("*.py"))
    total = sum((_references(ast.parse(p.read_text())) for p in users), Counter())
    unused = []
    for path in MODULES:
        for name, node in _public_definitions(ast.parse(path.read_text())):
            short = name.rsplit(".", 1)[-1]
            if total[short] <= _references(node)[short]:
                unused.append(f"{path.name}: {name}")
    assert unused == []
