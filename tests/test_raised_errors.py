"""Every failure the package raises is one of the classes of `errors.py`."""

import ast
import builtins
from pathlib import Path

import rhd2d

PACKAGE = Path(rhd2d.__file__).resolve().parent


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, Exception)


def builtin_raises(source: str):
    """(line, name) of each `raise` of a built-in subclass of Exception, by
    class or by instance; a bare re-raise and SystemExit are not one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Name) and _is_builtin_exception(raised.id):
            found.append((node.lineno, raised.id))
    return found


def test_the_scan_finds_a_builtin_raise():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    try:\n"
        "        raise TypeError\n"
        "    except TypeError:\n"
        "        raise\n"
        "    raise ConfigurationError('y')\n"
        "raise SystemExit(f(0))\n"
        "raise KeyboardInterrupt\n"
    )
    assert builtin_raises(source) == [(3, "ValueError"), (5, "TypeError")]


def test_no_builtin_exception_is_raised():
    found = [
        f"{path.name}:{line}: raise {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in builtin_raises(path.read_text(encoding="utf-8"))
    ]
    assert found == []

