import math

import pytest

from oracles import sampled_stable_sup

from anosovlab.errors import NotCodimensionOne
from anosovlab.experiments import ExperimentConfig, run_experiment
from anosovlab.regularity import bunching_report
from anosovlab.spectral import IntegerMatrix, spectral_data


def test_companion3_stable_product(companion3):
    report = bunching_report(spectral_data(companion3), t=1.0)
    # lam * xi = 0.7548776... * 1.1509639...
    assert report.stable_sup(1.0) == pytest.approx(0.8688370, abs=1e-6)
    assert report.stable_sup(1.0) < 1.0


def test_companion3_nu_max_is_kappa_minus_grid_step(companion3):
    # lam * xi^nu < 1 iff nu < 2, so the 0.1 grid tops out at 1.9
    report = bunching_report(spectral_data(companion3), 1.0)
    assert report.nu_max_stable == pytest.approx(1.9)


def test_cat_map_marginal_failure(cat_map):
    report = bunching_report(spectral_data(cat_map), 1.0)
    assert report.stable_sup(1.0) == pytest.approx(1.0, abs=1e-9)
    assert report.nu_max_stable is not None and report.nu_max_stable < 1.0


def test_volume_identity(cat_map, companion3, quartic_real):
    for matrix in (cat_map, companion3, quartic_real):
        report = bunching_report(spectral_data(matrix), 1.0)
        assert report.volume_product == pytest.approx(1.0, abs=1e-12)


def test_weak_sup_below_stable_sup(companion3, quartic_real):
    for matrix in (companion3, quartic_real):
        report = bunching_report(spectral_data(matrix), 1.0)
        for nu in report.nu_grid:
            assert report.weak_stable_sup(nu) <= report.stable_sup(nu) + 1e-15


def test_monotone_in_time(companion3):
    data = spectral_data(companion3)
    prev = None
    for t in (1.0, 2.0, 4.0):
        sup = bunching_report(data, t).stable_sup(1.0)
        if prev is not None:
            assert sup <= prev
        prev = sup


def test_strict_contraction_needs_higher_unstable_dim(companion3, quartic_real):
    # dim E^u >= 2 forces lam * xi_max < 1 strictly for unit determinant
    for matrix in (companion3, quartic_real):
        report = bunching_report(spectral_data(matrix), 1.0)
        assert report.stable_sup(1.0) < 1.0


def test_sampled_fallback_agrees(companion3, quartic_real):
    for matrix in (companion3, quartic_real):
        data = spectral_data(matrix)
        closed = bunching_report(data, 1.0).stable_sup(1.0)
        sampled = sampled_stable_sup(data, 1.0, 1.0, 1.0)
        assert sampled <= closed + 1e-9
        assert sampled >= 0.9 * closed


def test_requires_codimension_one():
    m = IntegerMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    with pytest.raises(NotCodimensionOne):
        bunching_report(spectral_data(m), 1.0)


def test_time_below_one_return_rejected(companion3):
    with pytest.raises(ValueError):
        bunching_report(spectral_data(companion3), 0.5)


@pytest.mark.parametrize("t", [1263.0, 3000.0, 10000.0])
def test_out_of_range_t_refused(companion3, t):
    # xi^(4 t) overflows from t = 1263 on, and past t = 2650 lam^t is 0 too:
    # the inf and 0 * inf = NaN sup-products once came back as a report
    data = spectral_data(companion3)
    assert math.isfinite(bunching_report(data, 1262.0).stable_sup(4.0))
    with pytest.raises(ValueError, match="leave the float range"):
        bunching_report(data, t)


def test_csv_rows(companion3, tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "bunching",
        "matrix": {"poly": [-1, 0, 1, 1]},
        "params": {"t_multiples": [1.0, 2.0]},
    })
    run_experiment(cfg, tmp_path)
    header, *rows = (tmp_path / "bunching.csv").read_text().splitlines()
    report = bunching_report(spectral_data(companion3), 1.0)
    assert header == "t,nu,weak_sup,stable_sup"
    assert len(rows) == 2 * len(report.nu_grid)
    assert all(len(row.split(",")) == 4 for row in rows)
