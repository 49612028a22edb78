"""Every parameter default in the package is overridden by some caller outside tests.

A default that no call in `src/anosovlab` or `bench/` passes, by keyword or
by position, is one fixed value with a second place to change it: it
becomes a named module constant. Calls are matched to definitions by bare
name, as in `test_callers`. A class call counts for the class's
`__init__`, and a method's positions start after `self` or `cls`. A
`*args` in a call covers every position, and a `**kwargs` every keyword.
"""

import ast

from test_callers import PACKAGE, ROOT, _trees

# parameter defaults kept although no caller passes them, one reason each
ALLOWED: dict[str, str] = {}


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the package and the benchmark, by the bare name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _trees(PACKAGE, ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _defaults():
    """(key, called name, position or None, parameter) of each parameter with a default.

    The key is `module.function.parameter`, or `module.Class.method.parameter`
    for a method; the position is the index of a call's positional argument
    that binds it, None for a keyword-only parameter.
    """
    for path, tree in _trees(PACKAGE):
        methods = {
            member: node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for member in node.body if isinstance(member, ast.FunctionDef)
        }
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            owner = methods.get(func)
            prefix = f"{path.stem}.{owner}.{func.name}" if owner else f"{path.stem}.{func.name}"
            called = owner if func.name == "__init__" else func.name
            positional = func.args.posonlyargs + func.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
            offset = 1 if owner and not static else 0
            first = len(positional) - len(func.args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                yield f"{prefix}.{arg.arg}", called, index - offset, arg.arg
            for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{arg.arg}", called, None, arg.arg


def _passes(call: ast.Call, position, parameter: str) -> bool:
    if any(kw.arg in (parameter, None) for kw in call.keywords):   # None: a **kwargs
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def _unpassed() -> list[str]:
    calls = _calls()
    return [
        key for key, called, position, parameter in _defaults()
        if not any(_passes(call, position, parameter) for call in calls.get(called, []))
    ]


def test_every_default_is_passed_by_some_caller():
    assert [key for key in _unpassed() if key not in ALLOWED] == []


def test_allowlist_entries_exist_and_are_unpassed():
    unpassed = set(_unpassed())
    assert [key for key in ALLOWED if key not in unpassed] == []
