"""mpmath is a test dependency only: nothing in `src/` imports it.

The package's exact arithmetic is integer and `Fraction` arithmetic; the
extended-precision oracles in `tests/oracles.py` are the only mpmath
users. Every module under `src/anosovlab` is scanned for an `mpmath`
import, and a fresh interpreter checks that importing the CLI does not
load it through some other module. A periodic-orbit enumeration must not
load `numpy.ma` either: `np.unique` imports it, at about 1 MB of RSS and
10 ms per process.
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


def _fresh_interpreter(code):
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return result.stdout.strip()


def test_importing_the_cli_leaves_mpmath_unloaded():
    assert _fresh_interpreter("import sys, anosovlab.cli; print('mpmath' in sys.modules)") == "False"


def test_periodic_obstructions_leave_numpy_ma_unloaded():
    code = (
        "import sys\n"
        "from anosovlab.roof import RoofFunction, TrigPolynomial, periodic_obstructions\n"
        "from anosovlab.spectral import IntegerMatrix\n"
        "poly = TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)\n"
        "periodic_obstructions(RoofFunction(poly), IntegerMatrix([[2, 1], [1, 1]]), 6)\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False"
