"""The float splitting and the leaf test each live in one place.

`spectral.spectral_data` builds the frame [E^u | E^s], its inverse and the
projectors `proj_u`, `proj_s`, once per matrix; `SuspensionFlow.leaf_part`
is the one test that a displacement lies on a leaf. So no function but
`spectral_data` binds a name or attribute of the frame or a projector, no
function but `leaf_part` raises `OffLeaf` or reads `LEAF_TOL`, and
`flow.py` and `roof.py` invert no matrix.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"

FRAME_BUILD = "spectral.spectral_data"
LEAF_TEST = "flow.SuspensionFlow.leaf_part"
SPLITTING = {"frame", "frame_inv", "proj_u", "proj_s"}
NO_INVERSE = {"flow", "roof"}


def _scopes(tree, stem):
    """(qualified name, scope) of the module and of each function, methods by class."""
    yield stem, tree
    stack = [(stem, node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend((f"{prefix}.{node.name}", child) for child in node.body)


def _own_nodes(scope):
    """Nodes of a module or function body, not those of nested functions or classes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _findings():
    """(qualified name, what it does) for each splitting build, leaf test or inverse."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for where, scope in _scopes(tree, path.stem):
            for node in _own_nodes(scope):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
                    if name == "OffLeaf":
                        yield where, "raises OffLeaf"
                elif getattr(node, "id", getattr(node, "attr", None)) == "LEAF_TOL":
                    if isinstance(node.ctx, ast.Load):
                        yield where, "reads LEAF_TOL"
                elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name in SPLITTING:
                        yield where, f"binds {name}"
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "inv" and path.stem in NO_INVERSE):
                    yield where, "inverts a matrix"


def test_splitting_and_leaf_test_live_in_one_place():
    allowed = {(FRAME_BUILD, f"binds {name}") for name in SPLITTING}
    allowed |= {(LEAF_TEST, "raises OffLeaf"), (LEAF_TEST, "reads LEAF_TOL")}
    assert sorted(set(_findings()) - allowed) == []


def test_the_one_places_are_still_found():
    # the guard sees the build and the test it protects, so it is not vacuous
    found = set(_findings())
    assert {(FRAME_BUILD, f"binds {name}") for name in SPLITTING} <= found
    assert {(LEAF_TEST, "raises OffLeaf"), (LEAF_TEST, "reads LEAF_TOL")} <= found
