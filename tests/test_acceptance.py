"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import const_roof

from anosovlab import intlinalg, pcf, perturb
from anosovlab.errors import ObstructionNonzero
from anosovlab.experiments import load_config, run_experiment
from anosovlab.flow import SuspensionFlow
from anosovlab.regularity import bunching_report
from anosovlab.roof import (
    RoofFunction,
    TrigPolynomial,
    periodic_obstructions,
    periodic_points,
    solve_coboundary,
)
from anosovlab.spectral import (
    invariant_unstable_subspaces,
    spectral_data,
    spectral_gap_condition,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_DIGESTS = CONFIGS.parent / "bench" / "reference_digests.json"
SEED = 20260808


def _report(number: int, label: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{verdict}] {label}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def cos_roof(dim):
    return RoofFunction(
        TrigPolynomial.constant(1.0, dim)
        + TrigPolynomial.cosine(0.1, (1,) + (0,) * (dim - 1), dim)
    )


def test_01_pcf_vanishing_for_constant_roofs(cat_map, companion3):
    worst = 0.0
    for matrix in (cat_map, companion3):
        flow = SuspensionFlow(matrix, const_roof(matrix.dim))
        quads = pcf.sample_quadrilaterals(flow, 100, seed=SEED)
        for rho in pcf.temporal_distance_series(flow, quads):
            worst = max(worst, abs(rho))
    _report(1, "constant-roof temporal distance vanishes", worst <= 1e-10,
            f"max |rho| = {worst:.3g} over 200 quadrilaterals (tol 1e-10)")


def test_02_dual_oracle_agreement(companion3):
    flow = SuspensionFlow(companion3, cos_roof(3))
    quads = pcf.sample_quadrilaterals(flow, 100, seed=SEED)
    worst = 0.0
    for rho_s, rho_g in zip(pcf.temporal_distance_series(flow, quads),
                            pcf.temporal_distance_geometric(flow, quads)):
        worst = max(worst, abs(rho_s - rho_g))
    _report(2, "series vs geometric temporal distance", worst <= 1e-6,
            f"max discrepancy = {worst:.3g} over 100 quadrilaterals (tol 1e-6)")


def test_03_conjugacy_invariance(companion3):
    flow = SuspensionFlow(companion3, cos_roof(3))
    flow2, conj = pcf.translate_flow(
        flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
    )
    quads = pcf.sample_quadrilaterals(flow, 100, seed=SEED + 1)
    worst = pcf.conjugacy_invariance_check(flow, flow2, conj, quads)
    _report(3, "planted translation preserves PCF values", worst <= 1e-6,
            f"max |rho1 - rho2 o h| = {worst:.3g} over 100 quadrilaterals (tol 1e-6)")


def test_04_livshits_criterion(cat_map):
    u = TrigPolynomial.sine(0.05, (1, 0), 2)
    planted = RoofFunction(
        TrigPolynomial.constant(1.0, 2) + u.compose_matrix(cat_map) - u
    )
    sol = solve_coboundary(planted, cat_map, 8, periodic_obstructions(planted, cat_map, 6))
    recovered = sol.residual_sup <= 1e-9 and sol.obstruction_spread <= 1e-12

    obstructed = cos_roof(2)
    report = periodic_obstructions(obstructed, cat_map, 6)
    spread = report.spread
    rejected = False
    try:
        solve_coboundary(obstructed, cat_map, 8, report)
    except ObstructionNonzero:
        rejected = True
    ok = recovered and rejected and spread > 1e-3
    _report(4, "coboundary recovery and obstruction rejection", ok,
            f"residual_sup = {sol.residual_sup:.3g} (tol 1e-9), planted spread = "
            f"{sol.obstruction_spread:.3g} (tol 1e-12), cos spread = {spread:.3g} (> 1e-3), "
            f"rejected = {rejected}")


def test_05_periodic_counts(cat_map, companion3):
    ok = True
    detail = []
    for matrix in (cat_map, companion3):
        for n in range(1, 7):
            dmat = intlinalg.mat_sub(matrix.power(n), intlinalg.identity(matrix.dim))
            expected = abs(intlinalg.det(dmat))
            count = sum(o.period_n for o in periodic_points(matrix, n))
            ok = ok and count == expected
        detail.append(f"dim {matrix.dim}: n<=6 counts match |det(M^n - I)|")
    _report(5, "periodic point counts", ok, "; ".join(detail))


def test_06_spectral_gap_checker(companion3):
    report = spectral_gap_condition(spectral_data(companion3))
    ok = (
        abs(report.lhs - 0.0593) <= 1e-3
        and report.rhs == 0.0
        and report.xi_1 == report.xi_l
        and report.satisfied
    )
    _report(6, "log-eigenvalue inequality on companion(x^3+x^2-1)", ok,
            f"lhs = {report.lhs:.6f} (0.0593 +- 1e-3), rhs = {report.rhs}, "
            f"satisfied = {report.satisfied}")


def test_07_bunching_products(cat_map, companion3):
    rep3 = bunching_report(spectral_data(companion3), 1.0)
    rep2 = bunching_report(spectral_data(cat_map), 1.0)
    ok = (
        abs(rep3.stable_sup(1.0) - 0.86885) <= 1e-4
        and rep3.stable_sup(1.0) < 1.0
        and abs(rep2.stable_sup(1.0) - 1.0) <= 1e-9
        and abs(rep3.volume_product - 1.0) <= 1e-12
        and abs(rep2.volume_product - 1.0) <= 1e-12
    )
    _report(7, "bunching products", ok,
            f"companion-3 product = {rep3.stable_sup(1.0):.6f} (0.86885 +- 1e-4, < 1), "
            f"cat product = {rep2.stable_sup(1.0):.12f} (1.0 +- 1e-9), "
            f"J^s J^u - 1 <= 1e-12")


def test_08_claim44_and_remainder(companion3):
    flow = SuspensionFlow(companion3, const_roof(3))
    setup = perturb.kappa_experiment(flow, n_points=25)
    report = perturb.claim44_check(
        setup.chart, setup.datum, setup.bump, setup.claim_steps
    )
    fit = perturb.remainder_exponent(
        setup.chart, setup.datum, setup.bump, setup.x_sequence
    )
    norms = [np.linalg.norm(x) for x in setup.x_sequence]
    ok = (
        report.fitted_order >= 0.9
        and fit.exponent >= 1.8
        and min(norms) <= 2e-4
        and max(norms) >= 5e-2
        and abs(report.kappa - 2.0) <= 1e-9
    )
    _report(8, "holonomy derivative formula and kappa remainder", ok,
            f"finite-difference order = {report.fitted_order:.3f} (>= 0.9), "
            f"remainder exponent = {fit.exponent:.3f} (>= 1.8; kappa = "
            f"{report.kappa:.3f}) over |x| in [{min(norms):.1e}, {max(norms):.1e}]")


def test_09_matching_kernels_and_reconstruction(companion3):
    const_flow = SuspensionFlow(companion3, const_roof(3))
    bp = (0.37, 0.61, 0.22)
    s_dir = const_flow.stable_frame()[:, 0]
    full = pcf.matching_kernel_dimension(
        const_flow, bp, [(bp, tuple(0.01 * s_dir))]
    )

    flow = SuspensionFlow(companion3, cos_roof(3))
    pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=5)
    kern = pcf.matching_kernel_dimension(flow, bp, pairs)
    flow2, conj = pcf.translate_flow(
        flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
    )
    rec = pcf.reconstruct_conjugacy_patch(
        flow, flow2, conj, kern, pairs, grid_n=3
    )
    ok = (
        full.kernel_dim == const_flow.dim_unstable == 2
        and len(pairs) == 2
        and kern.kernel_dim == 0
        and rec.sup_error <= 1e-4
    )
    _report(9, "matching kernels and patch reconstruction", ok,
            f"constant-roof kernel dim = {full.kernel_dim} (= dim E^u), "
            f"cos-roof kernel dim = {kern.kernel_dim} (= 0, two independent "
            f"gradients in budget), reconstruction sup error = "
            f"{rec.sup_error:.3g} (tol 1e-4)")


def test_10_grassmannian_sweep(companion3, quartic_real):
    cat3 = invariant_unstable_subspaces(spectral_data(companion3))
    vacuous = len(cat3.subspaces) == 0

    flow = SuspensionFlow(quartic_real, const_roof(4))
    chart = perturb.SectionChart(flow)
    cand = perturb.find_heteroclinic_data(chart, 2)[0]
    datum = perturb.make_heteroclinic_datum(
        chart, cand.q_orbit, cand.q_index, cand.offset
    )
    cat4 = invariant_unstable_subspaces(spectral_data(quartic_real))
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(8, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    grid = [a * d for d in dirs for a in (0.01, 0.05, 0.1)]
    report = perturb.grassmannian_sweep(chart, datum, grid, cat4)
    ok = (
        vacuous
        and len(cat4.subspaces) == 6
        and report.any_gradient_avoids_all
        and report.diameter > 0.0
    )
    _report(10, "invariant-subspace sweep", ok,
            f"complex-pair list empty = {vacuous} (condition vacuous), quartic "
            f"subspaces = {len(cat4.subspaces)}, some gradient avoids all = "
            f"{report.any_gradient_avoids_all}, swept diameter = "
            f"{report.diameter:.3f} (> 0)")


def test_11_bundled_config_determinism(tmp_path):
    # the first run of each config must also match the stored reference
    # digests, so a change in any report digit fails here, not only in the
    # benchmark
    reference = json.loads(REFERENCE_DIGESTS.read_text())
    mismatches = []
    for config_path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(config_path)
        base = tmp_path / config_path.stem
        run_experiment(cfg, base / "run1", workers=1)
        run_experiment(cfg, base / "run2", workers=1)
        run_experiment(cfg, base / "run4", workers=4)
        for other in ("run2", "run4"):
            for p in sorted((base / "run1").iterdir()):
                if (base / other / p.name).read_bytes() != p.read_bytes():
                    mismatches.append(f"{config_path.stem}/{other}/{p.name}")
        manifest = json.loads((base / "run1" / "manifest.json").read_text())
        digests = {r["name"]: r["sha256"] for r in manifest["reports"]}
        if digests != reference.get(config_path.stem):
            mismatches.append(f"{config_path.stem}/run1 digests differ from the reference")
    _report(11, "bundled configs deterministic", not mismatches,
            f"{len(list(CONFIGS.glob('*.json')))} configs x (rerun, 4 workers) "
            f"byte-identical, digests as in {REFERENCE_DIGESTS.name}"
            if not mismatches else f"mismatches: {mismatches}")
