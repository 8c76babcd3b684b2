"""No function in the package takes a parameter that its body never reads."""

import ast
from pathlib import Path

import rhd2d

PACKAGE = Path(rhd2d.__file__).resolve().parent


def _parameters(args: ast.arguments):
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [arg.arg for arg in named if arg is not None]


def unread_parameters(source: str):
    """(line, function, parameter) of each parameter, other than self, cls and
    _-prefixed names, that no load in its function's body (closures included) reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {
            name.id
            for statement in body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        function = getattr(node, "name", "<lambda>")
        found += [
            (node.lineno, function, parameter)
            for parameter in _parameters(node.args)
            if parameter not in ("self", "cls") and not parameter.startswith("_")
            and parameter not in reads
        ]
    return found


def test_the_scan_finds_an_unread_parameter():
    source = "def f(a, b, *, c, _d, **e):\n    return a + (lambda x, y: x)(c, e)\n"
    assert unread_parameters(source) == [(1, "f", "b"), (2, "<lambda>", "y")]


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line}: {function}({parameter})"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, function, parameter in unread_parameters(path.read_text(encoding="utf-8"))
    ]
    assert unread == []
