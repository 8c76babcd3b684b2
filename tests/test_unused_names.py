"""Every top-level name in the package is used by the package: no function,
class or constant exists only for tests.  And every module loads each name
that it imports."""

import ast
from pathlib import Path

import rhd2d

PACKAGE = Path(rhd2d.__file__).resolve().parent


def _defined(tree: ast.Module):
    """(line, name) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def _used(tree: ast.Module):
    """Every name that a statement of `tree` loads, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_names(sources: dict):
    """(module, line, name) of each top-level name of the `sources` (module
    name to text) that no statement of any of them uses; dunders exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {name for tree in trees.values() for name in _used(tree)}
    return [
        (module, line, name)
        for module, tree in trees.items()
        for line, name in _defined(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def unused_imports(sources: dict):
    """(module, line, name) of each name that a module of the `sources`
    imports but never loads; `__init__` (whose imports are re-exports) and
    `from __future__` exempt."""
    found = []
    for module, text in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [(module, node.lineno, name) for name in bound if name not in loaded]
    return sorted(found)


def test_the_scan_finds_an_unused_name():
    sources = {
        "a": "from . import b\nX = 1\nY, Z = 2, 3\n__all__ = []\n"
             "def f():\n    return b.g() + X + Z\nclass C:\n    pass\n",
        "b": "from .a import C\ndef g():\n    pass\ndef h():\n    pass\n",
    }
    assert unused_names(sources) == [("a", 3, "Y"), ("a", 5, "f"), ("b", 4, "h")]


def test_every_top_level_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    unused = [f"{module}.py:{line}: {name}" for module, line, name in unused_names(sources)]
    assert unused == []


def test_the_scan_finds_an_unused_import():
    sources = {
        "__init__": "from .a import f\nimport sys\n",
        "a": "from __future__ import annotations\nimport os\nimport sys as system\n"
             "import numpy.linalg\nfrom typing import Mapping, Optional\n"
             "def f(x: Mapping):\n    import json\n    return numpy.linalg.norm(x)\n",
    }
    assert unused_imports(sources) == [("a", 2, "os"), ("a", 3, "system"), ("a", 5, "Optional"),
                                       ("a", 7, "json")]


def test_every_import_is_loaded():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    unused = [f"{module}.py:{line}: {name}" for module, line, name in unused_imports(sources)]
    assert unused == []
