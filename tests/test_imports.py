"""Hygiene of the package: no module imports a name it never uses, no
function takes a parameter it never reads, and every exported name
resolves."""

import ast
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


# Parameters kept although unread, by module.
UNREAD_ALLOWED = {
    # The benchmark's tracer still calls replay_step(table, buffer, params,
    # rng); ROADMAP item 1 frees it.
    "learning.py": ["replay_step.table"],
}


def test_unread_parameter_check_flags_an_unread_name():
    assert unread_parameters("def f(a, b, _c):\n"
                             "    return lambda x, y: a + x\n") \
        == ["f.b", "<lambda>.y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parameters_are_read(path):
    assert unread_parameters(path.read_text()) \
        == UNREAD_ALLOWED.get(path.name, [])


def test_exported_names_resolve():
    assert len(set(wsn_lab.__all__)) == len(wsn_lab.__all__)
    assert [n for n in wsn_lab.__all__ if not hasattr(wsn_lab, n)] == []
