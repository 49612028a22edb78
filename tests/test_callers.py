"""Every function, class and method in the package has a caller outside tests.

A name counts as called when it appears as a `Name` or an attribute in
`src/anosovlab` or `bench/`, or as a segment of a dotted path that
`bench/tracing.py` rebinds. Code that only tests reach belongs in
`tests/oracles.py` as a reference, or goes.
"""

import ast
from pathlib import Path

from test_tracing_paths import _tracing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anosovlab"

# definitions kept without a caller, one reason each
ALLOWED = {
    "TrigPolynomial.cosine": "fixture constructor beside constant and sine",
    "conjugacy_invariance_check": "waits to be wired into the subbundle report",
    "__getattr__": "PEP 562 hook: the import system is its caller",
}


# bare names defined more than once, which the caller check above cannot
# tell apart; each reason names a caller of every definition
SHARED = {
    "dim": "SuspensionFlow.dim by pcf.sample_quadrilaterals, RoofFunction.dim "
           "and IntegerMatrix.dim by SuspensionFlow.__init__",
    "dim_unstable": "SuspensionFlow.dim_unstable by experiments._run_subbundle, "
                    "SectionChart.dim_unstable by experiments._run_sweep",
    "companion": "intlinalg.companion by IntegerMatrix.companion, "
                 "IntegerMatrix.companion by experiments.build_matrix",
    "lipschitz_bound": "TrigPolynomial.lipschitz_bound by SuspensionFlow._leaf_series, "
                       "Bump.lipschitz_bound by perturb.return_series",
}


def _trees(*dirs):
    for directory in dirs:
        for path in sorted(directory.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _called_names() -> set[str]:
    names = set()
    for _, tree in _trees(PACKAGE, ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    tracing = _tracing()
    for path in [*tracing.SPANS.values(), *(path for _, path, _ in tracing.COUNTERS)]:
        names.update(path.split("."))
    return names


def _definitions():
    """(qualified name, bare name) of each top-level def and non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            yield f"{path.stem}.{node.name}", node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("__"):
                        yield (f"{path.stem}.{node.name}.{member.name}",
                               f"{node.name}.{member.name}", member.name)


def test_every_definition_has_a_caller():
    called = _called_names()
    uncalled = [
        qualified for qualified, key, name in _definitions()
        if name not in called and key not in ALLOWED
    ]
    assert uncalled == []


def test_allowlist_entries_exist_and_are_uncalled():
    called = _called_names()
    keys = {key: name for _, key, name in _definitions()}
    assert [key for key in ALLOWED if key not in keys or keys[key] in called] == []


def _defined_twice() -> set[str]:
    seen, twice = set(), set()
    for _, _, name in _definitions():
        (twice if name in seen else seen).add(name)
    return twice


def test_bare_names_are_defined_once():
    # a second definition of a name hides the first from the caller check,
    # as TrigPolynomial.constant once hid an uncalled RoofFunction.constant
    assert sorted(_defined_twice() - set(SHARED)) == []


def test_shared_entries_are_still_shared():
    assert sorted(set(SHARED) - _defined_twice()) == []
