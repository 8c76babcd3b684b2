"""Every default of an internal function is set by some call in the package.

A defaulted parameter that no call sets is a constant in disguise.  The
scan covers each function and method whose name `rhd2d` does not export
and that is not the console entry point; the defaults of those are for
callers outside the package.  A call is matched to a function by
name alone (`f(...)` or `obj.f(...)`, and a class's name for its
`__init__`).  A `*args` or `**kwargs` splat sets nothing: the scan does not
follow what it forwards, so a default that only a splat could set counts
as unset.
"""

import ast
from pathlib import Path

import rhd2d

PACKAGE = Path(rhd2d.__file__).resolve().parent
ENTRY_POINT = "main"  # cli.main, the `rhd2d` console script


def _exported(source: str):
    """The names that an `__init__` source imports, that is, exports."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _functions(tree):
    """(node, name, bound) of each function: the name calls reach it by (its
    class's for `__init__`), and bound 1 for a method whose first parameter
    the call fills."""
    methods = {
        id(item): (node.name if item.name == "__init__" else item.name,
                   0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list) else 1)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return [(node, *methods.get(id(node), (node.name, 0))) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _defaulted(args: ast.arguments, bound: int):
    """(call position or None, name) of each defaulted parameter."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    found = [(index - bound, arg.arg) for index, arg in enumerate(positional) if index >= first]
    found += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def _sets(call: ast.Call, position, name: str) -> bool:
    """Whether `call` names the parameter or fills its position before any splat."""
    plain = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    return (any(keyword.arg == name for keyword in call.keywords)
            or (position is not None and position < plain))


def unset_defaults(sources, exported, skip=(ENTRY_POINT,)):
    """(file, line, function, parameter) of each defaulted parameter of a
    function in `sources` (file name -> source) that no call there sets,
    leaving out functions named in `exported` or `skip`."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    found = []
    for file, tree in trees.items():
        for node, name, bound in _functions(tree):
            if name in exported or name in skip:
                continue
            found += [(file, node.lineno, name, parameter)
                      for position, parameter in _defaulted(node.args, bound)
                      if not any(_sets(call, position, parameter) for call in calls.get(name, ()))]
    return found


def test_the_scan_finds_an_unset_default():
    source = (
        "def f(a, b=1, *, c=2, d=3):\n"
        "    return g(*a) + h() + f(0, **a)\n"
        "def g(x=0):\n"
        "    return K().m(4) + K.s(5)\n"
        "def h(w=1):\n"
        "    return f(0, 5, c=1)\n"
        "def main(v=0):\n"
        "    return v\n"
        "class K:\n"
        "    def __init__(self, r=0, t=1):\n"
        "        self.r = K(t=r)\n"
        "    def m(self, y=1, z=2):\n"
        "        return K.s(y, q=z)\n"
        "    @staticmethod\n"
        "    def s(p, q=0):\n"
        "        return p + q\n"
    )
    assert unset_defaults({"mod.py": source}, exported={"h"}) == [
        ("mod.py", 1, "f", "d"), ("mod.py", 3, "g", "x"), ("mod.py", 10, "K", "r"),
        ("mod.py", 12, "m", "z"),
    ]


def test_every_default_is_set_by_a_call():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unset = [f"{file}:{line}: {function}({parameter})"
             for file, line, function, parameter in unset_defaults(sources, _exported(init))]
    assert unset == []
