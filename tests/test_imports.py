"""Import hygiene of the package: no module imports a name it never uses,
and every exported name resolves."""

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


def test_exported_names_resolve():
    assert len(set(wsn_lab.__all__)) == len(wsn_lab.__all__)
    assert [n for n in wsn_lab.__all__ if not hasattr(wsn_lab, n)] == []
