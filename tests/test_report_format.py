"""Every report byte is formatted in one place: `experiments.py`.

The numerics modules return numbers; each runner in `experiments.py`
turns them into CSV rows, headers and JSON payloads, and `util` only
writes them. So no module but `experiments.py` calls `write_csv`,
`write_json` or `format_float` (save `util.write_csv`, which formats the
float cells it writes), and none defines a name that speaks of CSV or
JSON (save `util`'s two writers).
"""

import ast
from pathlib import Path

from test_splitting_reads import _own_nodes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"

FORMATTER = "experiments"
WRITERS = {"write_csv", "write_json", "format_float"}
ALLOWED = {
    ("util.write_csv", "calls format_float"),
    ("util.write_csv", "is named for a report format"),
    ("util.write_json", "is named for a report format"),
}


def _scopes(tree, stem):
    """(qualified name, scope) of the module and of each class and function."""
    yield stem, tree
    stack = [(stem, node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
            stack.extend((f"{prefix}.{node.name}", child) for child in node.body)


def _names_a_format(name: str) -> bool:
    return "csv" in name.lower() or "json" in name.lower()


def _findings():
    """(qualified name, what it does) for each report write or format name outside experiments."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == FORMATTER:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for where, scope in _scopes(tree, path.stem):
            if scope is not tree and _names_a_format(scope.name):
                yield where, "is named for a report format"
            for node in _own_nodes(scope):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in WRITERS:
                        yield where, f"calls {name}"
                elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if _names_a_format(name):
                        yield where, f"binds {name}"


def test_reports_are_formatted_only_in_experiments():
    assert sorted(set(_findings()) - ALLOWED) == []


def test_allowlist_entries_are_still_needed():
    # the guard sees util's writers, so it is not vacuous
    assert sorted(ALLOWED - set(_findings())) == []
