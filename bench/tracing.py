"""Layer trace recorded from outside the package.

`install` rebinds each traced function or method of `anosovlab` to a
wrapper. A module-level function is also rebound in every `anosovlab`
module that imported it by value (for example `spectral_data` in `flow`),
so calls through either name are seen. Spans and counts live in memory in
a `Recorder` and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> traced attribute, as a path inside the package. A class
# constructor is traced through its __init__.
SPANS = {
    "experiments.run_experiment": "experiments.run_experiment",
    "spectral.spectral_data": "spectral.spectral_data",
    "roof.RoofFunction": "roof.RoofFunction.__init__",
    "roof.periodic_points": "roof.periodic_points",
    "roof.periodic_obstructions": "roof.periodic_obstructions",
    "roof.solve_coboundary": "roof.solve_coboundary",
    "intlinalg.unimodular_diagonalize": "intlinalg.unimodular_diagonalize",
    "flow.SuspensionFlow": "flow.SuspensionFlow.__init__",
    "flow.time_adjustment": "flow.SuspensionFlow.time_adjustment",
    "flow.birkhoff_exact": "flow.SuspensionFlow.birkhoff_exact",
    "pcf.temporal_distance_series": "pcf.temporal_distance_series",
    "pcf.temporal_distance_geometric": "pcf.temporal_distance_geometric",
    "pcf.pcf_gradient": "pcf.pcf_gradient",
    "pcf.find_independent_pairs": "pcf.find_independent_pairs",
    "pcf.matching_kernel_dimension": "pcf.matching_kernel_dimension",
    "pcf.translate_flow": "pcf.translate_flow",
    "pcf.reconstruct_conjugacy_patch": "pcf.reconstruct_conjugacy_patch",
    "perturb.kappa_experiment": "perturb.kappa_experiment",
    "perturb.claim44_check": "perturb.claim44_check",
    "perturb.remainder_exponent": "perturb.remainder_exponent",
    "perturb.return_series": "perturb.return_series",
    "perturb.t_series": "perturb.SectionChart.t_series",
    "mpspec.splitting": "mpspec.splitting",
    "mpspec.MPSplitting": "mpspec.MPSplitting.__init__",
    "util.write_csv": "util.write_csv",
    "util.write_json": "util.write_json",
}


def _birkhoff_steps(bound, result):
    return bound.arguments["n"]


def _records(bound, result):
    return len(result)


def _report_bytes(bound, result):
    return sum(Path(p).stat().st_size for p in result)


# (count name, traced attribute, amount added per call from the bound
# arguments and the result; None adds one per call)
COUNTERS = (
    ("flow.exact_steps", "flow.SuspensionFlow.base_apply_exact", None),
    ("flow.exact_steps", "flow.SuspensionFlow.base_apply_inv_exact", None),
    ("flow.birkhoff_exact.steps", "flow.SuspensionFlow.birkhoff_exact", _birkhoff_steps),
    ("roof.evaluate.calls", "roof.TrigPolynomial.evaluate", None),
    ("roof.eval_diff.calls", "roof.TrigPolynomial.eval_diff", None),
    ("roof.gradient_diff.calls", "roof.TrigPolynomial.gradient_diff", None),
    ("roof.periodic_orbits", "roof.periodic_points", _records),
    ("experiments.report_bytes", "experiments.run_experiment", _report_bytes),
)

COUNT_NAMES = tuple(dict.fromkeys(name for name, _, _ in COUNTERS))


class Recorder:
    """Spans and counts of one process. `run_id` tags the spans that follow."""

    def __init__(self):
        self.run_id = "setup"
        self.spans: list = []   # (name, start, end, parent index, run id, outermost)
        self.counts = Counter(dict.fromkeys(COUNT_NAMES, 0))
        self._stack: list[int] = []
        self._open = Counter()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            outermost = self._open[name] == 0
            self.spans.append(None)
            self._stack.append(idx)
            self._open[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans[idx] = (name, start, end, parent, self.run_id, outermost)

        return traced

    def count(self, name: str, amount, fn):
        counts = self.counts
        if amount is None:
            @functools.wraps(fn)
            def counted_call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted_call
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            counts[name] += amount(bound, result)
            return result

        return counted

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def _rebind(path: str, wrap) -> None:
    module_name, *owner, attr = path.split(".")
    module = importlib.import_module(f"anosovlab.{module_name}")
    if owner:
        cls = getattr(module, owner[0])
        setattr(cls, attr, wrap(cls.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if name == "anosovlab" or name.startswith("anosovlab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install() -> Recorder:
    """Trace every name in SPANS and COUNTERS; returns the recorder."""
    rec = Recorder()
    for name, path in SPANS.items():
        _rebind(path, functools.partial(rec.span, name))
    for name, path, amount in COUNTERS:
        _rebind(path, functools.partial(rec.count, name, amount))
    return rec


def summarize(spans: list, counts: dict) -> dict:
    """Per-layer metrics: X.calls, X.s and X.self_s for each span name, plus counts.

    X.s sums only outermost spans of X, so recursion is not counted twice;
    self time is a span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for idx, (name, start, end, _, _, outermost) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[idx]
        if outermost:
            out[f"{name}.s"] += end - start
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0)
    return out
