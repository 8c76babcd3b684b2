"""`riemann` is the mesh's flux kernel alone: it imports nothing from the
package, and the point-wise corner API that `verify` uses stays out of the
package namespace."""

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
