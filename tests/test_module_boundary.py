"""`riemann` is the mesh's flux kernel alone: it imports nothing from the
package, and the point-wise corner API that `verify` uses stays out of the
package namespace.  `run()` checks its input before its step loop, so the
loop itself raises nothing."""

import ast
from pathlib import Path

import rhd2d

PACKAGE = Path(rhd2d.__file__).resolve().parent
POINT_WISE = ("hll_flux_1d", "hll_state_1d", "hll_state_2d", "quadrant_fan_states",
              "DegenerateFanError", "DispatchError")


def package_imports(source: str):
    """(line, module) of each import from the package: relative, or of `rhd2d` by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, module)
            for module in modules
            if module.startswith(".") or module.split(".")[0] == "rhd2d"
        ]
    return sorted(found)


def test_the_scan_finds_package_imports():
    source = (
        "from __future__ import annotations\nimport numpy as np\nfrom . import physics\n"
        "def f():\n    from .errors import RhdError\nimport rhd2d.physics\nfrom rhd2d import cli\n"
    )
    assert package_imports(source) == [(3, "."), (5, ".errors"), (6, "rhd2d.physics"), (7, "rhd2d")]


def test_riemann_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "riemann.py").read_text(encoding="utf-8")) == []


def test_point_wise_corner_api_is_not_exported():
    assert [name for name in POINT_WISE if hasattr(rhd2d, name)] == []


def loop_raises(source: str, function: str):
    """Line of each `raise` statement inside a `while` loop of a top-level function."""
    tree = ast.parse(source)
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return sorted({node.lineno
                   for loop in ast.walk(body) if isinstance(loop, ast.While)
                   for node in ast.walk(loop) if isinstance(node, ast.Raise)})


def test_the_scan_finds_loop_raises():
    source = ("def run(t):\n    if t < 0:\n        raise ValueError\n    while t:\n"
              "        for _ in ():\n            raise ValueError\n        t -= 1\n")
    assert loop_raises(source, "run") == [6]


def test_run_loop_raises_nothing():
    """A check of the run's input inside the loop would fire after the snapshot at t = 0."""
    assert loop_raises((PACKAGE / "mesh_solver.py").read_text(encoding="utf-8"), "run") == []
