"""Every module of the package, the scripts and the tests uses each name it
imports; the package's ``__init__`` is exempt, since its imports are its
public names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names a module binds by ``import`` or ``from ... import`` and never
    reads; ``import a.b`` binds ``a``, and ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_checker_sees_an_unused_import():
    assert unused_imports("import os, sys.path\nfrom a import b as c, d\nd(sys)\n") == ["c", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for folder in ("src/ncspheres", "scripts", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != "__init__.py" and (names := unused_imports(path.read_text())):
                found[f"{folder}/{path.name}"] = names
    assert not found
