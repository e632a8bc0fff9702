"""Hygiene of the package: no module imports a name it never uses, no
function takes a parameter it never reads, no modules import one another
in a cycle, and every exported name resolves."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import wsn_lab

MODULES = sorted(p for p in Path(wsn_lab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    imported = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            imported += [a.asname or a.name for a in stmt.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_an_unused_name():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["math"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list:
    """`function.parameter` for each parameter of a function or lambda that
    its body never reads; names starting with `_` are exempt."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (a.posonlyargs + a.args + a.kwonlyargs
                                  + [a.vararg, a.kwarg]) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        unread += [f"{name}.{p}" for p in params
                   if not p.startswith("_") and p not in read]
    return unread


def test_unread_parameter_check_flags_an_unread_name():
    assert unread_parameters("def f(a, b, _c):\n"
                             "    return lambda x, y: a + x\n") \
        == ["f.b", "<lambda>.y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parameters_are_read(path):
    assert unread_parameters(path.read_text()) == []


def relative_imports(source: str) -> set:
    """Sibling modules a module imports relatively, at any depth in it, so
    a function-local import counts as much as a module-level one."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def import_cycle(graph: dict) -> list:
    """A cycle in a module -> imported-modules graph, as the path that
    returns to its first module; [] when there is none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def test_import_cycle_check_flags_a_two_module_cycle():
    a = relative_imports("from .b import x\n")
    b = relative_imports("def f():\n    from . import a\n    return a\n")
    assert (a, b) == ({"b"}, {"a"})
    assert sorted(import_cycle({"a": a, "b": b})) == ["a", "a", "b"]
    assert import_cycle({"a": a, "b": set()}) == []


def test_package_has_no_import_cycle():
    graph = {p.stem: relative_imports(p.read_text()) for p in MODULES}
    assert import_cycle(graph) == []


def test_exported_names_resolve():
    assert len(set(wsn_lab.__all__)) == len(wsn_lab.__all__)
    assert [n for n in wsn_lab.__all__ if not hasattr(wsn_lab, n)] == []
