"""Benchmark workloads: configs generated from a seed, and their correctness checks.

Each workload is a list of experiment configs that one fresh process runs in
order, one `run_experiment` call per config. Run k of an invocation uses
input set k, drawn from (seed, k): the same seed gives the same inputs, and
the runs of one invocation cover different inputs, so a median over runs
averages out how much work one draw happens to need. The program only ever
sees the generated configs. Every check uses a tolerance pinned in
`tests/test_acceptance.py`; a report that misses one counts as a failed
operation.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Cat map for the Livsic workload. Its obstructed roof spreads its amplitude
# over this fixed frequency support; the planted coboundary uses PLANT_FREQ.
CAT_MAP = [[2, 1], [1, 1]]
ROOF_SUPPORT = ([1, 0], [0, 1], [1, 1])
PLANT_FREQ = [1, 0]

# The subbundle workload runs the bundled config at its own seed. The pair
# search seed changes the Newton work of the reconstruction by up to 1.8x
# (440 to 808 time_adjustment calls over 12 seeds in 1-15), which would make
# run_s spread across seeds by more than any usable bound.
SUBBUNDLE_SEED = 5


def _bundled(stem: str) -> dict:
    return json.loads((CONFIGS / f"{stem}.json").read_text())


def _report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_manifest(out: Path) -> str | None:
    """The manifest lists every report with the sha256 of its bytes on disk."""
    manifest = _report(out, "manifest.json")
    for entry in manifest["reports"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            return f"manifest sha256 mismatch for {entry['name']}"
    return None


def check_pcf(out: Path) -> str | None:
    worst = _report(out, "pcf_summary.json")["max_discrepancy"]
    if not worst <= 1e-6:
        return f"max_discrepancy {worst!r} > 1e-6"
    return None


def check_subbundle(out: Path) -> str | None:
    rep = _report(out, "subbundle.json")
    if rep["kernel_dim"] != 0:
        return f"kernel_dim {rep['kernel_dim']} != 0"
    if not rep["reconstruction_sup_error"] <= 1e-4:
        return f"reconstruction_sup_error {rep['reconstruction_sup_error']!r} > 1e-4"
    return None


def check_livshits_planted(out: Path) -> str | None:
    rep = _report(out, "livshits.json")
    if rep["solved"] is not True:
        return "planted coboundary was not solved"
    if not rep["residual_sup"] <= 1e-9:
        return f"residual_sup {rep['residual_sup']!r} > 1e-9"
    return None


def check_livshits_obstructed(out: Path) -> str | None:
    rep = _report(out, "livshits.json")
    if rep["solved"] is not False:
        return "obstructed roof was solved as a coboundary"
    if not rep["spread"] > 1e-3:
        return f"obstruction spread {rep['spread']!r} <= 1e-3"
    return None


def check_claim44(out: Path) -> str | None:
    rep = _report(out, "claim44.json")
    if not rep["fitted_order"] >= 0.9:
        return f"fitted_order {rep['fitted_order']!r} < 0.9"
    if not rep["remainder_exponent"] >= 1.8:
        return f"remainder_exponent {rep['remainder_exponent']!r} < 1.8"
    if not abs(rep["kappa"] - 2.0) <= 1e-9:
        return f"|kappa - 2| > 1e-9 (kappa {rep['kappa']!r})"
    return None


def pcf_d3(rng: random.Random, small: bool) -> list:
    cfg = _bundled("pcf_companion3")
    cfg["seed"] = rng.getrandbits(63)
    cfg["params"]["n_samples"] = 4 if small else 40
    return [(cfg, check_pcf)]


def conjugacy_d3(rng: random.Random, small: bool) -> list:
    cfg = _bundled("subbundle_companion3")
    cfg["seed"] = SUBBUNDLE_SEED
    if small:
        cfg["params"]["grid_n"] = 2
    return [(cfg, check_subbundle)]


def livshits_d2(rng: random.Random, small: bool) -> list:
    seed = rng.getrandbits(63)
    n_max = 5 if small else 8
    terms = [
        {"k": list(k), "re": round(rng.uniform(0.02, 0.06), 6), "im": 0.0}
        for k in ROOF_SUPPORT
    ]
    obstructed = {
        "kind": "livshits",
        "seed": seed,
        "matrix": {"entries": copy.deepcopy(CAT_MAP)},
        "roof": {"constant": 1.0, "terms": terms},
        "params": {"trunc": 8, "n_max": n_max},
    }
    planted = {
        "kind": "livshits",
        "seed": seed,
        "matrix": {"entries": copy.deepcopy(CAT_MAP)},
        "roof": {"constant": 1.0},
        "params": {
            "trunc": 8,
            "n_max": n_max,
            "plant_coboundary": {
                "amplitude": round(rng.uniform(0.02, 0.08), 6),
                "freq": list(PLANT_FREQ),
            },
        },
    }
    return [(obstructed, check_livshits_obstructed), (planted, check_livshits_planted)]


def claim44_d3(rng: random.Random, small: bool) -> list:
    cfg = _bundled("claim44_companion3")
    cfg["params"]["n_points"] = 8 if small else 60
    return [(cfg, check_claim44)]


WORKLOADS = {
    "pcf_d3": pcf_d3,
    "conjugacy_d3": conjugacy_d3,
    "livshits_d2": livshits_d2,
    "claim44_d3": claim44_d3,
}


def configs(workload: str, seed: int, inputs: int, small: bool = False) -> list:
    """[(config dict, check)] for input set `inputs` of `workload` under `seed`."""
    return WORKLOADS[workload](random.Random(f"{seed}:{inputs}"), small)
