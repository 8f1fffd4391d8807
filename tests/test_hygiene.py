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


def _defined_names(tree):
    # Every function and class a tree defines, and every name it assigns at
    # module level.
    names = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _unused(modules, bench):
    """Public names of `modules` ({file name: source}) that neither another
    module nor a `bench` source reads.  A bench file's reference to a name
    it defines itself is its own, so it is not counted."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    for text in bench:
        tree = ast.parse(text)
        refs = _references(tree)
        for name in _defined_names(tree):
            del refs[name]
        total += refs
    unused = []
    for file_name, tree in trees.items():
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if total[short] <= _references(node)[short]:
                unused.append(f"{file_name}: {name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path.name: path.read_text() for path in MODULES}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert _unused(modules, bench) == []


def test_a_bench_definition_does_not_mask_a_package_name():
    modules = {"pairdb.py": "def eval_expr(text):\n    return text\n"}
    called = "from gaussorbits import pairdb\npairdb.eval_expr('1')\n"
    shadowed = "def eval_expr(text):\n    return text\n\neval_expr('1')\n"
    assert _unused(modules, [called]) == []
    assert _unused(modules, [shadowed]) == ["pairdb.py: eval_expr"]


def test_the_sweep_owns_the_only_orbit_cache():
    # No function takes a memo.  The table builders reach the rule through
    # orbits.sweep, whose one dict serves each walk, and the scan through
    # orbits.rule_for alone, so only the one-point `classify` command calls
    # classify.
    memos, calls = [], []
    for path in MODULES:
        for node in _nodes(path):
            if isinstance(node, ast.arg) and node.arg == "memo":
                memos.append((path.name, node.lineno))
            func = node.func if isinstance(node, ast.Call) else None
            if "classify" in (getattr(func, "id", None), getattr(func, "attr", None)):
                calls.append(path.name)
    assert memos == []
    assert calls == ["cli.py"]


def _object_setattr_readers(tree, name):
    # The qualified name of the def or class around each read of
    # object.__setattr__ in tree.
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _object_setattr_readers(child, f"{name}.{child.name}")
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"):
            found.append(name)
        found += _object_setattr_readers(child, name)
    return found


def test_value_types_are_frozen_dataclasses():
    # Frozen dataclasses refuse writes; RootVec alone keeps a hand-written
    # __setattr__, for its slots and cached hash, and nothing writes round
    # a frozen class with object.__setattr__.
    setters, readers = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        setters += [
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                    for item in node.body)
        ]
        readers += _object_setattr_readers(tree, path.stem)
    assert setters == ["RootVec"]
    assert readers == []


def test_every_mutant_still_applies():
    # tests/mutants.py edits each old text in place, and names its killing
    # test by node id; a refactor that moves either must update the list.
    import mutants

    for name, old, new, test in mutants.MUTANTS:
        assert (ROOT / "src" / "gaussorbits" / name).read_text().count(old) == 1, (name, old)
        assert old != new
        path, cls, function = test.split("::")
        classes = [
            node for node in ast.parse((ROOT / path).read_text()).body
            if isinstance(node, ast.ClassDef) and node.name == cls
        ]
        assert any(
            isinstance(item, ast.FunctionDef) and item.name == function
            for node in classes for item in node.body
        ), test


def test_one_parser_and_one_expression_language():
    # Only expr.py parses: pairs.dat, the class counts, the count rows and
    # Table 1 share its polynomials, so no count is a lambda.
    from gaussorbits import expr, rootsys

    parsers = [
        path.name for path in MODULES for node in _nodes(path)
        if isinstance(node, ast.Import) and "ast" in [alias.name for alias in node.names]
        or isinstance(node, ast.ImportFrom) and node.module == "ast"
    ]
    assert parsers == ["expr.py"]
    counts = [count for classes in rootsys.CLASSES.values() for _, _, count in classes]
    counts += [count for rows in rootsys.HIGHEST_COUNTS.values() for row in rows.values()
               for count in row]
    assert all(isinstance(count, expr.Polynomial) for count in counts)
