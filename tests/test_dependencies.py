"""mpmath is a test dependency only: nothing in `src/` imports it.

The package's exact arithmetic is integer and `Fraction` arithmetic; the
extended-precision oracles in `tests/oracles.py` are the only mpmath
users. Every module under `src/anosovlab` is scanned for an `mpmath`
import, and a fresh interpreter checks that importing the CLI does not
load it through some other module. A periodic-orbit enumeration must not
load `numpy.ma` either: `np.unique` imports it, at about 1 MB of RSS and
10 ms per process. Building a flow must not load `numpy.polynomial`
(about 5 ms and 0.85 MB), and only the three records that need an
`__init__` or a default factory are dataclasses, whose creation costs
about 1 ms a class at import.

Set-up loads only what a config's kind runs. `import anosovlab.errors`
loads no numpy, since the package resolves its other exports on first
access. Each bundled config, loaded and run in its own fresh interpreter,
loads none of the modules that only other kinds use, and its run loads no
module that its set-up (loading the config and building its flow) has not:
so a module missing from `experiments.KINDS` fails here, instead of being
imported inside the run. Only `sweep` loads `numpy.random`: `pcf` and
`subbundle` draw from `pcf.SeededStream`. The manifest's SHA-256 comes
from the interpreter's builtin hash module, not `hashlib`, whose
`_hashlib` loads OpenSSL's libcrypto (about 3.6 MB and 3 ms): so only
`sweep` loads OpenSSL, through `numpy.random`.

Every `functools` cache in the package is process-wide, so each states a
finite `maxsize`: many runs in one process must not grow it without end.
"""

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anosovlab"
CONFIGS = ROOT / "configs"
BUNDLED = sorted(path.name for path in CONFIGS.glob("*.json"))

# kind -> modules that only other kinds use, which a run of it must not load
FOREIGN = {
    "catalog": ("anosovlab.pcf", "anosovlab.perturb", "anosovlab.mpspec",
                "anosovlab.regularity", "numpy.random"),
    "livshits": ("anosovlab.pcf", "anosovlab.perturb", "anosovlab.mpspec",
                 "anosovlab.regularity", "numpy.random"),
    "bunching": ("anosovlab.pcf", "anosovlab.perturb", "anosovlab.mpspec", "numpy.random"),
    "claim44": ("anosovlab.pcf", "anosovlab.regularity", "numpy.random"),
    "sweep": ("anosovlab.pcf", "anosovlab.regularity"),
    "pcf": ("anosovlab.perturb", "anosovlab.regularity", "numpy.random"),
    "subbundle": ("anosovlab.perturb", "anosovlab.regularity", "numpy.random"),
}


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


def test_importing_the_errors_leaves_numpy_unloaded():
    assert _fresh_interpreter("import sys, anosovlab.errors; print('numpy' in sys.modules)") == "False"


def test_importing_the_cli_leaves_mpmath_unloaded():
    assert _fresh_interpreter("import sys, anosovlab.cli; print('mpmath' in sys.modules)") == "False"


def test_importing_the_cli_leaves_openssl_unloaded():
    assert _fresh_interpreter("import sys, anosovlab.cli; print('_hashlib' in sys.modules)") == "False"


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


def test_building_a_flow_leaves_numpy_polynomial_unloaded():
    # numpy 1.x imports numpy.polynomial with numpy itself: compare against that
    code = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from anosovlab import experiments\n"
        "from anosovlab.flow import SuspensionFlow\n"
        f"cfg = json.load(open({str(CONFIGS / 'pcf_companion3.json')!r}))\n"
        "matrix = experiments.build_matrix(cfg['matrix'])\n"
        "SuspensionFlow(matrix, experiments.build_roof(cfg['roof'], matrix.dim))\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.polynomial')))"
    )
    assert _fresh_interpreter(code) == "[]"


@functools.cache
def _loads(name):
    """The modules a fresh interpreter has after the set-up of one bundled
    config, and those its run loads after that.

    Set-up is what `bench/child.py` times: loading the config and building
    its flow, which a config without a roof skips."""
    code = (
        "import json, sys, tempfile\n"
        "from anosovlab import experiments\n"
        "from anosovlab.flow import SuspensionFlow\n"
        f"cfg = experiments.load_config({str(CONFIGS / name)!r})\n"
        "if cfg.roof is not None:\n"
        "    matrix = experiments.build_matrix(cfg.matrix)\n"
        "    SuspensionFlow(matrix, experiments.build_roof(cfg.roof, matrix.dim))\n"
        "set_up = set(sys.modules)\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    experiments.run_experiment(cfg, out)\n"
        "print(json.dumps([sorted(set_up), sorted(set(sys.modules) - set_up)]))"
    )
    return json.loads(_fresh_interpreter(code))


def test_running_the_configs_loads_no_module_past_set_up():
    # a module first imported by a run counts in its time: every import a
    # bundled config needs is made by loading it and building its flow
    assert {name: _loads(name)[1] for name in BUNDLED} == dict.fromkeys(BUNDLED, [])


def test_each_kind_loads_only_its_own_modules():
    kinds = {name: json.loads((CONFIGS / name).read_text())["kind"] for name in BUNDLED}
    assert sorted(set(kinds.values())) == sorted(FOREIGN)
    foreign = {
        name: sorted(set().union(*_loads(name)) & set(FOREIGN[kind]))
        for name, kind in kinds.items()
    }
    assert foreign == dict.fromkeys(BUNDLED, [])


# numpy.random imports secrets, hmac and then hashlib; moving sweep off it
# would move its digest
LOADS_OPENSSL = {"sweep_quartic.json"}


def test_no_config_but_sweep_loads_openssl():
    loaded = {name: "_hashlib" in set().union(*_loads(name)) for name in BUNDLED}
    assert loaded == {name: name in LOADS_OPENSSL for name in BUNDLED}


CACHES = ("cache", "lru_cache")
BOUNDED_CACHE = re.compile(r"functools\.lru_cache\(maxsize=[1-9][0-9]*\)")


def test_every_cache_is_bounded():
    """Each `functools` cache is spelled `functools.lru_cache(maxsize=<n>)`, n > 0:
    `functools.cache`, a bare `lru_cache`, `maxsize=None` and
    importing either by name are refused."""
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        bounded = {id(node.func) for node in nodes
                   if isinstance(node, ast.Call) and BOUNDED_CACHE.fullmatch(ast.unparse(node))}
        offences += [
            (path.name, node.lineno) for node in nodes
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "functools"
            and node.attr in CACHES and id(node) not in bounded
            or isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in CACHES for alias in node.names)
        ]
    assert offences == []


def test_only_validating_or_defaulting_records_are_dataclasses():
    """Records are NamedTuples, which are cheaper to create; a dataclass is kept
    only for an `__init__` that validates or a field with a default factory."""
    decorated = sorted(
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if "dataclass" in ast.unparse(decorator)
    )
    assert decorated == ["ExperimentConfig", "IntegerMatrix", "RoofFunction"]


def test_every_export_resolves():
    import anosovlab

    assert len(set(anosovlab.__all__)) == len(anosovlab.__all__)
    assert [name for name in anosovlab.__all__ if not hasattr(anosovlab, name)] == []
    assert not hasattr(anosovlab, "no_such_export")
    # a lazily resolved export is the very object its defining module holds
    exports = {name: getattr(anosovlab, name) for name in anosovlab.__all__}
    assert [
        name for name, obj in exports.items()
        if getattr(importlib.import_module(obj.__module__), name) is not obj
    ] == []
