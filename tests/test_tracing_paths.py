"""The benchmark tracer still finds every package attribute it rebinds.

`bench/tracing.py` wraps functions and methods by dotted path from outside
the package. A rename in `src/` would break the traced benchmark, which
tier-1 does not run, so the paths are resolved here the way `_rebind`
looks them up. The module is only loaded, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(path):
    """The object _rebind would wrap, or None when the path is broken."""
    module_name, *owner, attr = path.split(".")
    module = importlib.import_module(f"anosovlab.{module_name}")
    if owner:
        return vars(getattr(module, owner[0], object)).get(attr)
    return getattr(module, attr, None)


def test_span_and_counter_paths_resolve():
    tracing = _tracing()
    paths = list(tracing.SPANS.values()) + [path for _, path, _ in tracing.COUNTERS]
    assert [path for path in paths if not callable(_resolve(path))] == []


def test_birkhoff_step_counter_reads_n():
    # the flow.birkhoff_exact.steps counter adds the bound argument n
    method = _resolve("flow.SuspensionFlow.birkhoff_exact")
    assert "n" in inspect.signature(method).parameters
