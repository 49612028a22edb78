"""Every tail-certified series sums through one loop: `flow.certified_sums`.

The loop adds each series up to its first tail under tol and applies the
one term cap. So no function in `src/` but that loop reads `MAX_TERMS` or
builds the term-cap `TruncationInsufficient` (a call of a `_truncation`
message helper, or one whose message counts terms).

The series pass arrays end to end: each round of the loop is one array
pass, with no `for` statement over series or terms, and no segment
closure (a nested function named `segment`) hands its terms or tails
back as lists.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"

ALLOWED = {
    ("flow.certified_sums", "reads MAX_TERMS"),
    ("flow.certified_sums", "builds the term cap"),
}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _builds_cap(call):
    name = _name(call.func)
    if name == "_truncation":
        return True
    return name == "TruncationInsufficient" and any(
        isinstance(node, ast.Constant) and isinstance(node.value, str) and "terms" in node.value
        for arg in call.args for node in ast.walk(arg)
    )


def _scan(where, scope):
    """(qualified function, what it does) for the nodes each function owns."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scan(f"{where}.{node.name}", node)
            continue
        if _name(node) == "MAX_TERMS" and isinstance(getattr(node, "ctx", None), ast.Load):
            yield where, "reads MAX_TERMS"
        elif isinstance(node, ast.Call) and _builds_cap(node):
            yield where, "builds the term cap"
        stack.extend(ast.iter_child_nodes(node))


def _offences():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from _scan(path.stem, ast.parse(path.read_text(), filename=str(path)))


def test_term_cap_lives_only_in_the_series_loop():
    assert sorted(set(_offences()) - ALLOWED) == []


def test_allowlist_entries_are_still_needed():
    assert sorted(ALLOWED - set(_offences())) == []


def _functions(name):
    """(module, function) of every function in `src/` with the given name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                yield path.stem, node


def test_series_loop_has_no_for_statement():
    [loop] = [f for module, f in _functions("certified_sums") if module == "flow"]
    assert not any(isinstance(node, (ast.For, ast.AsyncFor)) for node in ast.walk(loop))


def test_segment_closures_return_arrays():
    closures = list(_functions("segment"))
    assert closures
    offences = [
        f"{module}:{node.lineno}"
        for module, closure in closures for node in ast.walk(closure)
        if isinstance(node, ast.Call) and _name(node.func) == "tolist"
    ]
    assert offences == []
