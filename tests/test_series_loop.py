"""Every tail-certified series sums through one loop: `flow.certified_sums`.

The loop adds each series up to its first tail under tol and applies the
one term cap. So no function in `src/` but that loop reads `MAX_TERMS` or
builds the term-cap `TruncationInsufficient` (a call of a `_truncation`
message helper, or one whose message counts terms).

The series pass arrays end to end: each round of the loop is one array
pass, with no `for` statement over series or terms, and no segment
closure (a nested function named `segment`) hands its terms or bounds
back as lists.

The loop also holds the one tail rule: a series hands over next-term
bounds and its rate, and the loop divides by 1 - rate. So a function
that divides by, or multiplies with, `1 - <expr>` is the loop, the same
rule solved for a horizon, or listed here with its reason.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from anosovlab import flow

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"

ALLOWED = {
    ("flow.certified_sums", "reads MAX_TERMS"),
    ("flow.certified_sums", "builds the term cap"),
    ("flow.certified_sums", "forms a geometric tail"),
    ("flow.tail_horizon", "forms a geometric tail"),
    # its early exit tests the tail before term 0, when no series has run
    ("perturb.return_series", "forms a geometric tail"),
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


def _one_minus(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1)


def _forms_tail(node):
    """A division by 1 - <expr>, or a product with it as one factor."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _one_minus(node.right)
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
        return _one_minus(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _one_minus(node.left) or _one_minus(node.right)
    return False


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
        elif _forms_tail(node):
            yield where, "forms a geometric tail"
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


@pytest.mark.parametrize("rate", [0.3, 0.5, 0.8, 0.9])
def test_geometric_series_stops_where_its_horizon_says(rate):
    # terms g rate^n, each handing over the next term g rate^(n+1) as its
    # bound: the loop stops at the first n whose bound / (1 - rate) < tol,
    # and the horizon is the same rule solved for n, plus its margin of 2
    g, tol = 1.5, 1e-9

    def segment_terms(points, active):
        n = points[..., 0]
        return g * rate**n, g * rate ** (n + 1.0)

    length = flow.SEGMENT
    orbit = (np.arange(n, n + length, dtype=float)[None, :, None] for n in range(0, 10**6, length))
    [total], [count] = flow.certified_sums(orbit, segment_terms, tol, [0.0], rate)
    tails = [g * rate ** (n + 1.0) / (1.0 - rate) for n in range(count)]
    assert tails[-1] < tol <= min(tails[:-1])
    assert abs(total - g / (1.0 - rate)) < tol

    horizon = flow.tail_horizon(g, rate, 1.0, tol)   # lip g, scale 1
    assert g * rate**horizon / (1.0 - rate) <= tol
    assert horizon == max(count + 2, 8)
