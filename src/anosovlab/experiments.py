"""Batch experiment driver: strict JSON configs, deterministic reports.

Each kind's runner uses only the modules that `KINDS` names for it, and
`from_dict` imports those as it checks the kind, so they load in set-up.
A run writes CSV/JSON reports and a manifest with the config hash and the
content hash of every report file. This module formats every report: the
numerics modules return numbers, each runner turns them into CSV rows and
JSON payloads, and `util` only writes them. Identical configs produce
byte-identical outputs for any worker count: all randomness derives from
the single config seed and all aggregation is keyed by input index.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The interpreter's own SHA-256, as `random` takes its _sha512: `hashlib`
# loads OpenSSL's libcrypto, about 3.6 MB of RSS and 3 ms per process.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # a build without the builtin hash modules
        from hashlib import sha256

import numpy as np

from . import roof, spectral, util
from .errors import AnosovLabError, ConfigInvalid, ExperimentFailed
from .roof import RoofFunction, TrigPolynomial
from .spectral import IntegerMatrix

KINDS = {  # kind -> the modules its runner imports beyond this module's own
    "catalog": (), "livshits": (), "pcf": (".flow", ".pcf"), "subbundle": (".flow", ".pcf"),
    "claim44": (".flow", ".perturb"), "sweep": (".flow", ".perturb", "numpy.random"),
    "bunching": (".regularity",),
}

# Acceptance bounds a run must meet before its manifest is written.
MAX_DISCREPANCY_BOUND = 1e-6    # pcf: worst |series - geometric| of the two PCF routes
RECONSTRUCTION_BOUND = 1e-4     # subbundle: sup error of the recovered conjugacy patch


# ---------------------------------------------------------------------------
# configuration


# A dataclass, not a NamedTuple: `params` takes a default factory.
@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    matrix: dict | None = None
    roof: dict | None = None
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigInvalid("config must be a JSON object")
        allowed = {"kind", "seed", "matrix", "roof", "params"}
        unknown = set(payload) - allowed
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
        kind = payload.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ConfigInvalid(f"kind must be one of {tuple(KINDS)}, got {kind!r}")
        for module in KINDS[kind]:
            importlib.import_module(module, __package__)
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ConfigInvalid("seed must be an unsigned 64-bit integer")
        matrix = payload.get("matrix")
        if matrix is not None:
            if not isinstance(matrix, dict) or set(matrix) - {"poly", "entries"}:
                raise ConfigInvalid("matrix spec allows only 'poly' or 'entries'")
            if ("poly" in matrix) == ("entries" in matrix):
                raise ConfigInvalid("matrix spec needs exactly one of poly/entries")
        roof_spec = payload.get("roof")
        if roof_spec is not None:
            if not isinstance(roof_spec, dict) or set(roof_spec) - {"constant", "terms"}:
                raise ConfigInvalid("roof spec allows only 'constant' and 'terms'")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ConfigInvalid("params must be an object")
        return ExperimentConfig(
            kind=kind, seed=seed, matrix=matrix, roof=roof_spec, params=dict(params)
        )

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed, "params": self.params}
        if self.matrix is not None:
            out["matrix"] = self.matrix
        if self.roof is not None:
            out["roof"] = self.roof
        return out

    def content_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canon.encode()).hexdigest()


def load_config(path: Path) -> ExperimentConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigInvalid(f"cannot read config: {err}") from err
    return ExperimentConfig.from_dict(payload)


def build_matrix(spec: dict | None) -> IntegerMatrix:
    if spec is None:
        raise ConfigInvalid("this experiment needs a matrix spec")
    try:
        if "poly" in spec:
            return IntegerMatrix.companion(_integers("matrix poly", spec["poly"]))
        return IntegerMatrix([_integers("matrix entries row", row) for row in spec["entries"]])
    except (ValueError, TypeError) as err:
        raise ConfigInvalid(f"invalid matrix spec: {err}") from err


def build_roof(spec: dict | None, dim: int) -> RoofFunction:
    if spec is None:
        raise ConfigInvalid("this experiment needs a roof spec")
    try:
        poly = TrigPolynomial.constant(_finite("roof constant", spec.get("constant", 0.0)), dim)
        for term in spec.get("terms", []):
            unknown = set(term) - {"k", "re", "im"}
            if unknown:
                raise ConfigInvalid(f"unknown roof term fields: {sorted(unknown)}")
            k = tuple(_integers("roof term k", term["k"]))
            if not any(k):
                raise ConfigInvalid("roof term k must be nonzero; use constant for the mean")
            coeff = complex(_finite("roof term re", term.get("re", 0.0)),
                            _finite("roof term im", term.get("im", 0.0)))
            neg = tuple(-v for v in k)
            poly = poly + TrigPolynomial(dim, {k: coeff, neg: coeff.conjugate()})
        return RoofFunction(poly)
    except ConfigInvalid:
        raise
    except (ValueError, TypeError, KeyError) as err:
        raise ConfigInvalid(f"invalid roof spec: {err}") from err


def _finite(name: str, value) -> float:
    """A JSON number as a finite float; strings, bools and ints past float's range are refused."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigInvalid(f"{name} must be a finite number, got {value!r}")


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigInvalid(f"invalid rational {text!r}: {err}") from err


# ---------------------------------------------------------------------------
# parameters

REQUIRED = object()  # marks a param without a default

# kind -> key -> (type, default or REQUIRED, least admissible value or None).
# run_experiment checks a config's params against its kind's table before
# any work: an unknown or missing key, a wrong type, a non-finite float and
# a value under its least are refused. A dict in place of a type is the
# table of a nested object.
PARAMS = {
    "catalog": {
        "d": (int, REQUIRED, None),             # enumerate_catalog takes 2 to 5
        "coeff_bound": (int, REQUIRED, None),   # enumerate_catalog takes 0 to 10
    },
    "livshits": {
        "trunc": (int, REQUIRED, None),         # must cover the roof's frequencies
        "n_max": (int, 6, 1),                   # every orbit of period 1 to n_max
        # adds u o M - u for u = amplitude sin(2 pi freq . x), so the roof solves
        "plant_coboundary": ({
            "amplitude": (float, REQUIRED, None),
            "freq": (list, REQUIRED, None),
        }, None, None),
    },
    # no samples would pass the discrepancy bound vacuously
    "pcf": {"n_samples": (int, REQUIRED, 1)},
    "subbundle": {
        "base_point": (list, REQUIRED, None),   # one coordinate per base dimension
        "translation": (list, REQUIRED, None),  # rationals, one per base dimension
        "grid_n": (int, 3, 1),                  # grid points per unstable direction
    },
    "claim44": {"n_points": (int, 25, None)},   # kappa_experiment refuses under 2
    "sweep": {"q_period": (int, REQUIRED, 1)},  # period of the heteroclinic orbit
    "bunching": {"t_multiples": (list, (1, 2, 4), None)},  # flow times, in base returns
}

SWEEP_DIRECTIONS = 8                   # sweep: seeded random gradient directions
SWEEP_AMPLITUDES = (0.01, 0.05, 0.1)   # sweep: gradient norms along each direction


def _checked(params: dict, table: dict) -> dict:
    """`params` completed from `table`'s defaults, each set value checked against it."""
    unknown = set(params) - set(table)
    if unknown:
        raise ConfigInvalid(f"unknown params: {sorted(unknown)}")
    out = {}
    for key, (typ, default, least) in table.items():
        value = out[key] = params.get(key, default)
        if value is REQUIRED:
            raise ConfigInvalid(f"missing param {key}")
        if value is default:  # left out, or null where null is the default
            continue
        if isinstance(typ, dict):
            if not isinstance(value, dict):
                raise ConfigInvalid(f"param {key} has wrong type")
            out[key] = _checked(value, typ)
            continue
        if typ is float and type(value) in (int, float):
            value = out[key] = _finite(f"param {key}", value)
        if type(value) is not typ:
            raise ConfigInvalid(f"param {key} has wrong type")
        if least is not None and value < least:
            raise ConfigInvalid(f"param {key} must be at least {least}")
    return out


# ---------------------------------------------------------------------------
# experiment runners


def _check_bound(kind: str, quantity: str, value: float, bound: float) -> None:
    """Refuse a run whose reported quantity misses its bound (NaN included)."""
    if not value <= bound:
        raise ExperimentFailed(f"{kind}: {quantity} {value:.3g} exceeds its bound {bound:g}")


def _run_catalog(cfg, p, out):
    entries = spectral.enumerate_catalog(p["d"], p["coeff_bound"])
    rows = []
    for e in entries:
        rows.append([
            " ".join(str(c) for c in e.coeffs),
            len(e.coeffs) - 1,
            " ".join(util.format_float(m) for m in e.data.moduli),
            e.data.codimension_one,
            e.data.complex_unstable_pair,
            e.gap.mu, e.gap.xi_1, e.gap.xi_l, e.gap.lhs, e.gap.rhs,
            e.gap.satisfied,
        ])
    util.write_csv(out / "catalog.csv", [
        "poly_coeffs", "d", "moduli", "codim_one", "complex_pair",
        "mu", "xi1", "xil", "lhs", "rhs", "satisfied",
    ], rows)
    util.write_json(out / "catalog_summary.json", {
        "count": len(entries),
        "satisfied": sum(1 for e in entries if e.gap.satisfied),
        "complex_pairs": sum(1 for e in entries if e.data.complex_unstable_pair),
    })
    return ["catalog.csv", "catalog_summary.json"]


def _run_livshits(cfg, p, out):
    matrix = build_matrix(cfg.matrix)
    roof_fn = build_roof(cfg.roof, matrix.dim)
    plant = p["plant_coboundary"]
    if plant is not None:
        freq = tuple(_integers("param freq", plant["freq"]))
        # sin of frequency 0, or of amplitude 0, plants nothing: a vacuous pass
        if not any(freq) or plant["amplitude"] == 0:
            raise ConfigInvalid("plant_coboundary needs a nonzero amplitude and frequency")
        u = TrigPolynomial.sine(plant["amplitude"], freq, matrix.dim)
        roof_fn = RoofFunction(roof_fn.poly + u.compose_matrix(matrix) - u)
    report = roof.periodic_obstructions(roof_fn, matrix, p["n_max"])
    payload = {
        "spread": report.spread,
        "n_orbits": len(report.orbits),
        "constant_equivalent": bool(report.spread <= roof.OBSTRUCTION_TOL),
    }
    try:
        sol = roof.solve_coboundary(roof_fn, matrix, p["trunc"], report)
        payload.update({
            "solved": True,
            "constant_c": sol.constant_c,
            "residual_sup": sol.residual_sup,
            "transfer_terms": {
                "dim": sol.transfer_u.dim,
                "terms": [
                    {"k": list(k), "re": c.real, "im": c.imag}
                    for k, c in sol.transfer_u.terms.items()
                ],
            },
        })
    except roof.ObstructionNonzero as err:
        payload.update({"solved": False, "rejection": str(err)})
    # written only now, so a refused trunc leaves no report
    rows = []
    for orbit, avg in zip(report.orbits, report.averages):
        repr_str = ";".join(_lowest_terms(c, orbit.den) for c in orbit.representative())
        rows.append([orbit.period_n, repr_str, float(avg)])
    util.write_csv(out / "obstructions.csv", ["period_n", "orbit_repr", "average"], rows)
    util.write_json(out / "livshits.json", payload)
    return ["obstructions.csv", "livshits.json"]


def _lowest_terms(c: int, den: int) -> str:
    """c / den as "p/q" in lowest terms; gcd(0, den) = den writes 0 as 0/1."""
    g = math.gcd(c, den)
    return f"{c // g}/{den // g}"


def _run_pcf(cfg, p, out):
    from . import pcf
    from .flow import SuspensionFlow
    matrix = build_matrix(cfg.matrix)
    flow = SuspensionFlow(matrix, build_roof(cfg.roof, matrix.dim))
    quads = pcf.sample_quadrilaterals(flow, p["n_samples"], cfg.seed)
    series = pcf.temporal_distance_series(flow, quads)
    geometric = pcf.temporal_distance_geometric(flow, quads)
    rows = []
    for quad, rho_s, rho_g in zip(quads, series, geometric):
        rows.append([
            *[float(c) for c in quad.a], float(quad.fiber),
            *[float(c) for c in quad.s_disp],
            *[float(c) for c in quad.u_disp],
            float(rho_s), float(rho_g), float(abs(rho_s - rho_g)),
        ])
    dim = matrix.dim
    util.write_csv(out / "samples.csv", [
        *[f"ax{i + 1}" for i in range(dim)], "as",
        *[f"sdisp{i + 1}" for i in range(dim)],
        *[f"udisp{i + 1}" for i in range(dim)],
        "value_series", "value_geometric", "discrepancy",
    ], rows)
    max_discrepancy = max(row[-1] for row in rows)   # the discrepancy column
    util.write_json(out / "pcf_summary.json", {
        "n_samples": len(quads),
        "max_abs_series": max(abs(rho_s) for rho_s in series),
        "max_discrepancy": max_discrepancy,
    })
    _check_bound("pcf", "max_discrepancy", max_discrepancy, MAX_DISCREPANCY_BOUND)
    return ["samples.csv", "pcf_summary.json"]


def _run_subbundle(cfg, p, out):
    from . import pcf
    from .flow import SuspensionFlow
    matrix = build_matrix(cfg.matrix)
    bp = np.array(_numbers("base_point", p["base_point"])) % 1.0
    if len(bp) != matrix.dim:
        raise ConfigInvalid(
            f"param base_point has {len(bp)} entries, the base map needs {matrix.dim}")
    flow = SuspensionFlow(matrix, build_roof(cfg.roof, matrix.dim))
    translation = tuple(_parse_fraction(v) for v in p["translation"])
    flow2, conj = pcf.translate_flow(flow, translation)
    # the patch Newton solve needs a square Jacobian: one pair per unstable direction
    pairs = pcf.find_independent_pairs(flow, bp, count=flow.dim_unstable, seed=cfg.seed)
    kernel = pcf.matching_kernel_dimension(flow, bp, pairs)
    rec = pcf.reconstruct_conjugacy_patch(flow, flow2, conj, kernel, pairs, grid_n=p["grid_n"])
    util.write_json(out / "subbundle.json", {
        "kernel_dim": kernel.kernel_dim,
        "gradients": [list(g) for g in kernel.gradients],
        "reconstruction_sup_error": rec.sup_error,
        "n_grid": int(rec.grid_offsets.shape[0]),
    })
    _check_bound("subbundle", "reconstruction_sup_error", rec.sup_error, RECONSTRUCTION_BOUND)
    return ["subbundle.json"]


def _run_claim44(cfg, p, out):
    from . import perturb
    from .flow import SuspensionFlow
    matrix = build_matrix(cfg.matrix)
    flow = SuspensionFlow(matrix, build_roof(cfg.roof, matrix.dim))
    setup = perturb.kappa_experiment(flow, n_points=p["n_points"])
    report = perturb.claim44_check(setup.chart, setup.datum, setup.bump, setup.claim_steps)
    fit = perturb.remainder_exponent(setup.chart, setup.datum, setup.bump, setup.x_sequence)
    rows = []
    for h, lhs, err in zip(report.x_steps, report.lhs_fd, report.errors):
        rows.append([h, ";".join(util.format_float(v) for v in lhs),
                     ";".join(util.format_float(v) for v in report.rhs), err])
    util.write_csv(out / "claim44_residuals.csv",
                   ["step", "lhs_fd", "rhs", "abs_err"], rows)
    util.write_json(out / "claim44.json", {
        "rhs": list(report.rhs),
        "errors": list(report.errors),
        "fitted_order": report.fitted_order,
        "kappa": report.kappa,
        "remainder_exponent": fit.exponent,
        "remainder_norms": list(fit.norms),
        "remainder_residuals": list(fit.residuals),
        "y_r": setup.datum.y_r,
        "homoclinic_m": list(setup.homoclinic_m),
    })
    return ["claim44_residuals.csv", "claim44.json"]


def _run_sweep(cfg, p, out):
    from . import perturb
    from .flow import SuspensionFlow
    matrix = build_matrix(cfg.matrix)
    data = spectral.spectral_data(matrix)
    catalog = spectral.invariant_unstable_subspaces(data)
    flow = SuspensionFlow(matrix, build_roof(cfg.roof, matrix.dim))
    chart = perturb.SectionChart(flow)
    cands = perturb.find_heteroclinic_data(chart, p["q_period"])
    datum = perturb.make_heteroclinic_datum(
        chart, cands[0].q_orbit, cands[0].q_index, cands[0].offset
    )
    # numpy's ziggurat normals, which pcf.SeededStream does not reproduce
    rng = np.random.default_rng(cfg.seed)
    dirs = rng.normal(size=(SWEEP_DIRECTIONS, chart.dim_unstable))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    grid = [a * d for d in dirs for a in SWEEP_AMPLITUDES]
    report = perturb.grassmannian_sweep(chart, datum, grid, catalog)
    util.write_json(out / "sweep.json", {
        "n_subspaces": len(catalog.subspaces),
        "vacuous": report.vacuous,
        "diameter": report.diameter,
        "any_gradient_avoids_all": report.any_gradient_avoids_all,
        "entries": [
            {
                "gradient": list(e.gradient),
                "contained": list(e.contained_indices),
                "avoids_all": e.avoids_all,
            }
            for e in report.entries
        ],
    })
    return ["sweep.json"]


def _run_bunching(cfg, p, out):
    from . import regularity
    matrix = build_matrix(cfg.matrix)
    data = spectral.spectral_data(matrix)
    times = _numbers("t_multiples", p["t_multiples"])
    reports = [regularity.bunching_report(data, t) for t in times]
    rows = []
    for rep in reports:
        for nu, wk, st in zip(rep.nu_grid, rep.weak_stable_sups, rep.stable_sups):
            rows.append([rep.t, nu, wk, st])
    util.write_csv(out / "bunching.csv", ["t", "nu", "weak_sup", "stable_sup"], rows)
    first = reports[0]
    util.write_json(out / "bunching.json", {
        "stable_sup_nu1": first.stable_sup(1.0),
        "weak_sup_nu1": first.weak_stable_sup(1.0),
        "nu_max_stable": first.nu_max_stable,
        "nu_max_weak": first.nu_max_weak,
        "volume_product": first.volume_product,
    })
    return ["bunching.csv", "bunching.json"]


# each runner takes the config, its checked params and the out directory
_RUNNERS = {
    "catalog": _run_catalog,
    "livshits": _run_livshits,
    "pcf": _run_pcf,
    "subbundle": _run_subbundle,
    "claim44": _run_claim44,
    "sweep": _run_sweep,
    "bunching": _run_bunching,
}


def _numbers(key: str, values: list) -> list[float]:
    """A non-empty list param as finite floats; bools and non-numbers are refused."""
    if values and all(type(v) in (int, float) for v in values):
        return [_finite(f"param {key}", v) for v in values]
    raise ConfigInvalid(f"param {key} must be a non-empty list of numbers")


def _integers(name: str, values) -> list[int]:
    """A non-empty list of integers; floats, booleans and non-numbers are refused."""
    if isinstance(values, list) and values and all(type(v) is int for v in values):
        return values
    raise ConfigInvalid(f"{name} must be a non-empty list of integers")


def run_experiment(
    config: ExperimentConfig, out_dir: Path, workers: int = 1
) -> list[Path]:
    """Dispatch one experiment; returns the written report paths.

    The params are checked against the kind's PARAMS table before any
    work. Raises ConfigInvalid for bad configs and for an out_dir that is a file
    or lies under one, and ExperimentFailed when a module
    operation aborts or a reported quantity misses its acceptance bound; the
    manifest with content hashes is written only on success. `workers` is
    accepted for existing callers and changes nothing: every run is one
    thread, and its reports depend on the config alone.
    """
    params = _checked(config.params, PARAMS[config.kind])
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as err:
        raise ConfigInvalid(f"out directory {str(out)!r} cannot be made: {err.strerror}") from err
    try:
        names = _RUNNERS[config.kind](config, params, out)
    except (ConfigInvalid, ExperimentFailed):
        raise
    except AnosovLabError as err:
        raise ExperimentFailed(f"{config.kind}: {err}") from err
    except (ValueError, ArithmeticError) as err:
        raise ConfigInvalid(f"{config.kind}: {err}") from err
    manifest = {
        "kind": config.kind,
        "config_hash": config.content_hash(),
        "seed": config.seed,
        "reports": [
            {
                "name": name,
                "sha256": sha256((out / name).read_bytes()).hexdigest(),
            }
            for name in sorted(names)
        ],
    }
    util.write_json(out / "manifest.json", manifest)
    return [out / name for name in names] + [out / "manifest.json"]
