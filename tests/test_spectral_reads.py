"""The codimension-one spectrum is read in one place: `spectral.py`.

`SpectralData.lam`, `xi_min` and `xi_max` are the rates every other module
uses, and reading `lam` is the only gate for dim E^s = 1. So no module
but `spectral.py` reads `.moduli` or raises `NotCodimensionOne`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"

# (module.function, what it does) kept outside spectral.py, one reason each
ALLOWED = {
    ("experiments._run_catalog", "reads .moduli"):
        "the catalog report prints every modulus, not a rate",
    ("regularity.bunching_report", "reads .moduli"):
        "the volume product J^s J^u multiplies every modulus, not just the rates",
}


def _offences():
    """(module.function, what it does) for each spectrum read outside spectral.py."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = path.stem if isinstance(scope, ast.Module) else f"{path.stem}.{scope.name}"
            for node in _own_nodes(scope):
                if isinstance(node, ast.Attribute) and node.attr == "moduli":
                    yield where, "reads .moduli"
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
                    if name == "NotCodimensionOne":
                        yield where, "raises NotCodimensionOne"


def _own_nodes(scope):
    """Nodes of a module or function body, not those of nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_spectrum_is_read_only_in_spectral():
    assert sorted(set(_offences()) - set(ALLOWED)) == []


def test_allowlist_entries_are_still_needed():
    assert sorted(set(ALLOWED) - set(_offences())) == []
