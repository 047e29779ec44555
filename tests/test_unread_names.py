"""Every module-level function, class and assigned name of the package, and
every non-dunder method of its classes, is read somewhere in the package or
its scripts, or is one of the public names ``__init__`` exports.  The tests
do not count as readers: a name only they read is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def definitions(source: str) -> list[str]:
    """The module-level functions, classes and assigned names of a module,
    and the non-dunder methods of its classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in found if not (name.startswith("__") and name.endswith("__"))]


def reads(source: str) -> set[str]:
    """The names a module reads, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def exports(source: str) -> set[str]:
    """The names a package's ``__init__`` imports from its modules."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_checker_sees_an_unread_name():
    source = ("X = 1\nY, (Z, W) = 2, (3, 4)\n__all__ = []\n"
              "def f(): return W\nclass C:\n    def m(self): f()\n    def __len__(self): return 0\n")
    assert definitions(source) == ["X", "Y", "Z", "W", "f", "C", "m"]
    assert {"W", "f"} <= reads(source)
    assert not {"X", "Y", "Z", "C", "m"} & reads(source)
    assert reads("a.b.c = d\n") == {"a", "b", "c", "d"}
    assert exports("from .m import a, b as c\n") == {"a", "c"}


def test_every_definition_is_read():
    package = sorted((ROOT / "src/ncspheres").glob("*.py"))
    read = exports((ROOT / "src/ncspheres/__init__.py").read_text())
    for path in [*package, *sorted((ROOT / "scripts").glob("*.py"))]:
        read |= reads(path.read_text())
    unread = {f"{path.name}: {name}" for path in package
              for name in definitions(path.read_text()) if name not in read}
    assert not unread
