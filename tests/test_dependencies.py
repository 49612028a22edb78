"""mpmath is a test dependency only: nothing in `src/` imports it.

The package's exact arithmetic is integer and `Fraction` arithmetic; the
extended-precision oracles in `tests/oracles.py` are the only mpmath
users. Every module under `src/anosovlab` is scanned for an `mpmath`
import, and a fresh interpreter checks that importing the CLI does not
load it through some other module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_mpmath():
    offences = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imports(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[0] == "mpmath"
    ]
    assert offences == []


def test_importing_the_cli_leaves_mpmath_unloaded():
    code = "import sys, anosovlab.cli; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout.strip() == "False"
