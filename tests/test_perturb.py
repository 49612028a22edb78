import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import const_roof
from oracles import (
    backward_approach_reference, base_apply, coords, heteroclinic_data_reference,
    homoclinic_vectors_reference, section_roof,
)

from anosovlab import flow as flow_module
from anosovlab import perturb
from anosovlab.errors import ChartExit, ResidualBelowNoise
from anosovlab.experiments import ExperimentConfig, run_experiment
from anosovlab.flow import SuspensionFlow
from anosovlab.roof import RoofFunction, TrigPolynomial
from anosovlab.spectral import invariant_unstable_subspaces, spectral_data


@pytest.fixture(scope="module")
def cos_chart(companion3):
    flow = SuspensionFlow(
        companion3,
        RoofFunction(
            TrigPolynomial.constant(1.0, 3) + TrigPolynomial.cosine(0.1, (1, 0, 0), 3)
        ),
    )
    return perturb.SectionChart(flow)


class TestSectionChart:
    def test_rejects_translated_base(self, companion3):
        from fractions import Fraction

        flow = SuspensionFlow(
            companion3, const_roof(3),
            translation=(Fraction(1, 5), 0, 0),
        )
        with pytest.raises(ValueError, match="fixed point"):
            perturb.SectionChart(flow)

    def test_return_map_block_structure(self, kappa_setup):
        chart = kappa_setup.chart
        # f embeds as (A x, lam y): check on a sample chart point
        x = np.array([0.01, -0.02])
        y = 0.11
        image = base_apply(chart.flow, chart.embed(x, y))
        ix, iy = coords(chart, image)
        assert np.allclose(ix, chart.a_u @ x, atol=1e-12)
        assert iy == pytest.approx(chart.lam * y, abs=1e-12)

    def test_kappa_value(self, kappa_setup):
        assert kappa_setup.chart.kappa == pytest.approx(2.0, abs=1e-10)

    def test_t_series_matches_leaf_adjustments(self, cos_chart):
        # independent route: T(x, y) as the difference of two stable
        # adjustments computed by the flow module
        chart = cos_chart
        flow = chart.flow
        x = np.array([0.04, -0.03])
        y = 0.21
        direct = chart.t_series(x, y)
        base = chart.embed(x, 0.0)
        moved, origin = flow.time_adjustment([
            (base, base + y * chart.s_unit, "stable"),
            (np.zeros(3), y * chart.s_unit, "stable"),
        ])
        oracle = moved - origin
        assert direct == pytest.approx(oracle, abs=1e-12)

    def test_t_vanishes_on_axes(self, cos_chart):
        assert cos_chart.t_series(np.zeros(2), 0.3) == 0.0
        assert cos_chart.t_series(np.array([0.05, 0.02]), 0.0) == 0.0

    def test_t_gradient_matches_finite_differences(self, cos_chart):
        chart = cos_chart
        y = 0.2
        grad = chart.t_gradient_at_zero(y)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (chart.t_series(e, y) - chart.t_series(-e, y)) / (2 * h)
            assert fd == pytest.approx(grad[j], abs=1e-7)

    @pytest.mark.parametrize("segment", [1, 7, flow_module.SEGMENT])
    def test_segments_bit_identical(self, segment_flow, per_point_series, monkeypatch, segment):
        # the three leaf-graph series, batched, against the
        # one-point-at-a-time walk
        chart = perturb.SectionChart(segment_flow)
        points = [(np.array([0.04, -0.03]), 0.21), (np.array([-0.11, 0.07]), -0.33)]

        def series():
            out = []
            for x, y in points:
                out.append(chart.t_series(x, y))
                out.append(chart.t_gradient_at_zero(y).tolist())
                out.append(chart.unstable_slope(y).tolist())
            return out

        expected = per_point_series(series)
        monkeypatch.setattr(flow_module, "SEGMENT", segment)
        assert series() == expected

    def test_section_roof_constant_on_axes(self, cos_chart):
        # the bent section makes the return time constant on both local
        # leaves of the fixed point
        chart = cos_chart
        r0 = chart.flow.roof(np.zeros(3))
        for y in (-0.1, 0.05, 0.2):
            assert section_roof(chart, np.zeros(2), y) == pytest.approx(r0, abs=1e-11)
        for x in ([0.02, 0.01], [-0.03, 0.02]):
            assert section_roof(chart, np.array(x), 0.0) == pytest.approx(r0, abs=1e-11)


class TestHeteroclinicDatum:
    def test_backward_approach_verified(self, kappa_setup):
        assert kappa_setup.datum.backward_distance <= 1e-8

    def test_r_on_stable_line(self, kappa_setup):
        # leaf_part raises OffLeaf on a transverse part over LEAF_TOL = 1e-12
        chart = kappa_setup.chart
        r = np.array(kappa_setup.datum.r_base)
        chart.flow.leaf_part((r + 0.5) % 1.0 - 0.5, "stable")

    def test_candidates_sorted_and_bounded(self, cos_chart):
        data = perturb.find_heteroclinic_data(cos_chart, 4)
        ys = [abs(d.y_r) for d in data]
        assert ys == sorted(ys, reverse=True)
        assert all(0.12 <= y <= 0.45 for y in ys)


def _datum_bits(datum):
    return (datum.q_orbit, datum.q_index, datum.offset, datum.y_r.hex(),
            tuple(v.hex() for v in datum.r_base), datum.backward_distance)


class TestKappaSetupMatchesLoops:
    # the array passes of the kappa set-up on the bundled claim44 flow
    # (companion3, constant roof) against the loops they replaced, bit for bit

    @pytest.mark.parametrize("period", [perturb.KAPPA_Q_PERIOD, 7])
    def test_heteroclinic_data(self, kappa_setup, period):
        chart = kappa_setup.chart
        got = perturb.find_heteroclinic_data(chart, period)
        expected = heteroclinic_data_reference(chart, period)
        assert len(got) > 10
        assert [_datum_bits(d) for d in got] == [_datum_bits(d) for d in expected]

    def test_homoclinic_vectors(self, kappa_setup):
        got = perturb.homoclinic_vectors(kappa_setup.chart.flow)
        expected = homoclinic_vectors_reference(kappa_setup.chart.flow)
        assert len(got) > 10
        assert [(m, [v.hex() for v in x_m.tolist()], y_m.hex()) for m, x_m, y_m in got] == [
            (m, [v.hex() for v in x_m.tolist()], y_m.hex()) for m, x_m, y_m in expected]
        assert kappa_setup.homoclinic_m in [m for m, _, _ in got]

    def test_backward_approach(self, kappa_setup):
        # the chosen datum and the first candidates of its period, walked on
        # Python ints, and of period 1, whose den 1 puts the walk on limbs
        chart = kappa_setup.chart
        data = [kappa_setup.datum, *perturb.find_heteroclinic_data(chart, perturb.KAPPA_Q_PERIOD)[:6],
                *perturb.find_heteroclinic_data(chart, 1)[:3]]
        distances = []
        for datum in data:
            orbit, den = datum.q_orbit, datum.q_orbit.den
            target = [c + m * den for c, m in zip(orbit.numerators[datum.q_index], datum.offset)]
            got = perturb._verify_backward_approach(chart, target, orbit, perturb.VERIFY_STEPS)
            expected = backward_approach_reference(chart, target, orbit, perturb.VERIFY_STEPS)
            assert got.hex() == expected.hex()
            distances.append(got)
        assert distances[0] == kappa_setup.datum.backward_distance


class TestBump:
    def test_vanishes_on_stable_axis(self, kappa_setup):
        bump = kappa_setup.bump
        for y in (-0.3, 0.0, 0.2, bump.center_y):
            assert bump.value_chart(np.zeros(2), y) == 0.0

    def test_support_radius(self, kappa_setup):
        bump = kappa_setup.bump
        far = np.array([bump.radius * 1.01, 0.0])
        assert bump.value_chart(far, bump.center_y) == 0.0

    def test_gradient_closed_form(self, kappa_setup):
        bump = kappa_setup.bump
        rng = np.random.default_rng(0)
        h = 1e-7
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 2) * bump.radius
            y = bump.center_y + rng.uniform(-0.5, 0.5) * bump.radius
            grad = bump.grad_x_chart(x, y)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (bump.value_chart(x + e, y) - bump.value_chart(x - e, y)) / (2 * h)
                assert fd == pytest.approx(grad[j], abs=1e-6)

    def test_exclusion_constraints(self, kappa_setup):
        chart, datum = kappa_setup.chart, kappa_setup.datum
        with pytest.raises(ValueError, match="radius"):
            perturb.make_bump(chart, datum, radius=0.2, amplitude=0.01,
                              direction=[1.0, 0.0])

    def test_positivity_guard(self, kappa_setup):
        chart, datum = kappa_setup.chart, kappa_setup.datum
        with pytest.raises(ValueError, match="positive"):
            perturb.make_bump(chart, datum, radius=kappa_setup.bump.radius,
                              amplitude=50.0, direction=[1.0, 0.0])


class TestStableGraphTime:
    def test_no_bump_reduces_to_t(self, cos_chart):
        x = np.array([0.03, -0.01])
        y = 0.15
        assert perturb.stable_graph_time(cos_chart, None, [x], y) == [cos_chart.t_series(x, y)]

    def test_zero_x_is_zero_for_any_bump(self, kappa_setup):
        [value] = perturb.stable_graph_time(
            kappa_setup.chart, kappa_setup.bump, [np.zeros(2)], kappa_setup.datum.y_r
        )
        assert abs(value) <= 1e-15

    def test_truncation_refinement_stability(self, cos_chart, kappa_setup, monkeypatch):
        # nonconstant roof with a bump: halving the term-bound threshold
        # moves the value by less than 1e-10
        datum = perturb.make_heteroclinic_datum(
            cos_chart, kappa_setup.datum.q_orbit, kappa_setup.datum.q_index,
            kappa_setup.datum.offset,
        )
        bump = perturb.make_bump(cos_chart, datum, radius=0.04, amplitude=0.05,
                                 direction=[1.0, 0.4])
        x = np.array([0.04, 0.03])
        monkeypatch.setattr(perturb, "RETURN_TOL", 1e-13)
        [coarse] = perturb.stable_graph_time(cos_chart, bump, [x], datum.y_r)
        monkeypatch.setattr(perturb, "RETURN_TOL", 1e-14)
        [fine] = perturb.stable_graph_time(cos_chart, bump, [x], datum.y_r)
        assert abs(coarse - fine) <= 1e-10

    def test_chart_box_enforced(self, kappa_setup):
        with pytest.raises(ChartExit):
            perturb.stable_graph_time(
                kappa_setup.chart, kappa_setup.bump, [np.array([0.5, 0.0])], 0.1
            )

    def test_chart_box_checked_before_any_series(self, cos_chart, kappa_setup, monkeypatch):
        # the last point leaves the box: no series runs for the ones before it
        datum = perturb.make_heteroclinic_datum(
            cos_chart, kappa_setup.datum.q_orbit, kappa_setup.datum.q_index,
            kappa_setup.datum.offset,
        )
        bump = perturb.make_bump(cos_chart, datum, radius=0.04, amplitude=0.05,
                                 direction=[1.0, 0.4])

        def no_series(*args):
            raise AssertionError("a series ran before the chart-box check")

        monkeypatch.setattr(perturb, "certified_sums", no_series)
        points = [np.array([0.04, 0.03]), np.array([-0.02, 0.01]), np.array([0.5, 0.0])]
        with pytest.raises(ChartExit):
            perturb.stable_graph_time(cos_chart, bump, points, datum.y_r)


class TestReturnSeries:
    def test_coords_rows_match_coords(self, kappa_setup):
        chart = kappa_setup.chart
        rows = np.random.default_rng(3).uniform(-2.0, 2.0, (40, 3))
        for row, co in zip(rows, chart.coords_rows(rows)):
            x, y = coords(chart, row)
            assert [v.hex() for v in co] == [float(v).hex() for v in (*x, y)]

    def test_bump_only_on_screened_rows(self, companion3, monkeypatch):
        # the per-point path runs on rows the segment screen lets through:
        # two bump evaluations per recorded step, where one per orbit point
        # would make about 12 800 on this sequence
        flow = SuspensionFlow(companion3, const_roof(3))
        setup = perturb.kappa_experiment(flow, n_points=60)
        calls = 0
        value_chart = perturb.Bump.value_chart

        def counted(self, x, y):
            nonlocal calls
            calls += 1
            return value_chart(self, x, y)

        monkeypatch.setattr(perturb.Bump, "value_chart", counted)
        ledgers = perturb.return_series(setup.chart, setup.bump, setup.x_sequence, setup.datum.y_r)
        recorded = sum(len(ledger.steps) for ledger in ledgers)
        assert recorded > 0
        assert calls <= 4 * recorded

    def test_gaps_contract_at_stable_rate(self, kappa_setup):
        chart, datum, bump = kappa_setup.chart, kappa_setup.datum, kappa_setup.bump
        x = np.array(kappa_setup.x_sequence[5])
        [ledger] = perturb.return_series(chart, bump, [x], datum.y_r)
        gaps = ledger.gaps
        assert len(gaps) >= 2
        lam = abs(chart.lam)
        for g1, g2, n1, n2 in zip(gaps, gaps[1:], ledger.steps, ledger.steps[1:]):
            ratio = g2 / g1
            assert ratio <= lam ** (n2 - n1) * (1 + 1e-12)
            assert ratio < 1.0

    def test_first_return_is_the_bump_center_image(self, kappa_setup):
        chart, datum, bump = kappa_setup.chart, kappa_setup.datum, kappa_setup.bump
        x = np.array(kappa_setup.x_sequence[-1])  # smallest displacement
        [ledger] = perturb.return_series(chart, bump, [x], datum.y_r)
        assert 1 in ledger.steps
        idx = ledger.steps.index(1)
        expected = bump.value_chart(chart.a_u @ x, chart.lam * datum.y_r)
        assert ledger.terms[idx] == pytest.approx(expected, rel=1e-6)


class TestClaim44:
    def test_zero_bump_exact(self, kappa_setup):
        report = perturb.claim44_check(
            kappa_setup.chart, kappa_setup.datum, None, kappa_setup.claim_steps
        )
        assert max(report.errors) <= 1e-9
        assert report.rhs == (0.0, 0.0)

    def test_off_orbit_bump_reduces_to_t_gradient(self, kappa_setup):
        chart, datum = kappa_setup.chart, kappa_setup.datum
        # a bump whose support misses the first return f(r): the correction
        # term vanishes and the corner is D_x T again
        off = perturb.Bump(
            center_y=datum.y_r * chart.lam**3,
            radius=0.3 * abs(datum.y_r) * chart.lam**3,
            amplitude=0.05,
            direction=(1.0, 0.0),
        )
        corner = perturb.holonomy_corner(chart, datum, off)
        assert np.allclose(corner, chart.t_gradient_at_zero(datum.y_r))

    def test_kappa_setup_order(self, kappa_setup):
        report = perturb.claim44_check(
            kappa_setup.chart, kappa_setup.datum, kappa_setup.bump,
            kappa_setup.claim_steps,
        )
        assert report.fitted_order >= 0.9
        assert report.errors[-1] <= 1e-4
        assert report.kappa == pytest.approx(2.0, abs=1e-9)

    def test_one_return_series_call_per_stage(self, monkeypatch, tmp_path):
        # the bundled config at n_points 60: one batched call for the
        # finite differences of claim44_check and one for the x_sequence of
        # remainder_exponent, where per-point calls would make 78
        config = Path(__file__).resolve().parents[1] / "configs" / "claim44_companion3.json"
        payload = json.loads(config.read_text())
        payload["params"]["n_points"] = 60
        calls = 0
        return_series = perturb.return_series

        def counted(*args):
            nonlocal calls
            calls += 1
            return return_series(*args)

        monkeypatch.setattr(perturb, "return_series", counted)
        run_experiment(ExperimentConfig.from_dict(payload), tmp_path)
        assert calls == 2

    def test_steps_must_decrease(self, kappa_setup):
        with pytest.raises(ValueError):
            perturb.claim44_check(
                kappa_setup.chart, kappa_setup.datum, kappa_setup.bump, [1e-3, 1e-2]
            )


class TestRemainderExponent:
    def test_zero_bump_below_noise(self, kappa_setup):
        with pytest.raises(ResidualBelowNoise):
            perturb.remainder_exponent(
                kappa_setup.chart, kappa_setup.datum, None, kappa_setup.x_sequence
            )

    def test_kappa_law(self, kappa_setup):
        fit = perturb.remainder_exponent(
            kappa_setup.chart, kappa_setup.datum, kappa_setup.bump,
            kappa_setup.x_sequence,
        )
        assert len(fit.norms) >= 20
        assert fit.exponent >= 1.8

    def test_envelope(self, kappa_setup):
        fit = perturb.remainder_exponent(
            kappa_setup.chart, kappa_setup.datum, kappa_setup.bump,
            kappa_setup.x_sequence,
        )
        logs = [math.log(r) - 1.8 * math.log(n) for n, r in zip(fit.norms, fit.residuals)]
        c_fit = math.exp(sum(logs) / len(logs))
        for n, r in zip(fit.norms, fit.residuals):
            assert r <= 5.0 * c_fit * n**1.8

    def test_one_distinct_norm_below_noise(self, kappa_setup):
        # a fit through repeated abscissae has no slope to find
        x = kappa_setup.x_sequence[5]
        with pytest.raises(ResidualBelowNoise, match="distinct"):
            perturb.remainder_exponent(
                kappa_setup.chart, kappa_setup.datum, kappa_setup.bump, [x, x, x]
            )

    def test_small_support_means_no_second_return(self, kappa_setup):
        chart, datum = kappa_setup.chart, kappa_setup.datum
        tiny = perturb.make_bump(chart, datum, radius=0.004, amplitude=0.05,
                                 direction=kappa_setup.bump.direction)
        with pytest.raises(ResidualBelowNoise):
            perturb.remainder_exponent(chart, datum, tiny, kappa_setup.x_sequence)


class TestHolonomyDerivative:
    def test_matches_claim_rhs_exactly(self, kappa_setup):
        report = perturb.claim44_check(
            kappa_setup.chart, kappa_setup.datum, kappa_setup.bump,
            kappa_setup.claim_steps,
        )
        corner = perturb.holonomy_corner(
            kappa_setup.chart, kappa_setup.datum, kappa_setup.bump
        )
        assert tuple(corner) == report.rhs

    def test_zero_bump_corner_is_t_gradient(self, cos_chart, kappa_setup):
        datum = perturb.make_heteroclinic_datum(
            cos_chart, kappa_setup.datum.q_orbit, kappa_setup.datum.q_index,
            kappa_setup.datum.offset,
        )
        corner = perturb.holonomy_corner(cos_chart, datum, None)
        assert np.allclose(corner, cos_chart.t_gradient_at_zero(datum.y_r))

    def test_affine_in_amplitude(self, kappa_setup):
        chart, datum = kappa_setup.chart, kappa_setup.datum
        direction = kappa_setup.bump.direction
        radius = kappa_setup.bump.radius
        amps = np.linspace(0.005, 0.05, 10)
        corners = []
        for amp in amps:
            bump = perturb.make_bump(chart, datum, radius, amp, direction)
            corners.append(perturb.holonomy_corner(chart, datum, bump))
        corners = np.array(corners)
        base = chart.t_gradient_at_zero(datum.y_r)
        slope = np.asarray(direction) @ chart.a_u
        for amp, corner in zip(amps, corners):
            assert np.allclose(corner, base + amp * slope, atol=1e-14)


class TestGrassmannianSweep:
    def test_complex_pair_vacuous(self, kappa_setup, companion3):
        catalog = invariant_unstable_subspaces(spectral_data(companion3))
        report = perturb.grassmannian_sweep(
            kappa_setup.chart, kappa_setup.datum, [np.array([0.05, 0.0])], catalog
        )
        assert report.vacuous and report.any_gradient_avoids_all

    def test_zero_gradient_single_point(self, quartic_real):
        flow = SuspensionFlow(quartic_real, const_roof(4))
        chart = perturb.SectionChart(flow)
        cand = perturb.find_heteroclinic_data(chart, 2)[0]
        datum = perturb.make_heteroclinic_datum(
            chart, cand.q_orbit, cand.q_index, cand.offset
        )
        catalog = invariant_unstable_subspaces(spectral_data(quartic_real))
        report = perturb.grassmannian_sweep(chart, datum, [np.zeros(3)], catalog)
        assert report.diameter == 0.0
        # the unperturbed constant-roof holonomy contains every subspace
        assert report.entries[0].contained_indices == tuple(range(6))

    def test_real_quartic_sweep(self, quartic_real):
        flow = SuspensionFlow(quartic_real, const_roof(4))
        chart = perturb.SectionChart(flow)
        cand = perturb.find_heteroclinic_data(chart, 2)[0]
        datum = perturb.make_heteroclinic_datum(
            chart, cand.q_orbit, cand.q_index, cand.offset
        )
        catalog = invariant_unstable_subspaces(spectral_data(quartic_real))
        assert len(catalog.subspaces) == 6
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        grid = [a * d for d in dirs for a in (0.01, 0.05, 0.1)]
        report = perturb.grassmannian_sweep(chart, datum, grid, catalog)
        assert report.any_gradient_avoids_all
        assert report.diameter > 0.0


class TestKappaExperimentSetup:
    def test_deterministic(self, companion3, kappa_setup):
        flow = SuspensionFlow(companion3, const_roof(3))
        again = perturb.kappa_experiment(flow, n_points=25)
        assert again.datum.y_r == kappa_setup.datum.y_r
        assert again.bump == kappa_setup.bump
        assert again.x_sequence == kappa_setup.x_sequence

    def test_x_sequence_distinct(self, companion3):
        # at 60 log-spaced norms, 10 round to a step j already taken
        flow = SuspensionFlow(companion3, const_roof(3))
        xs = perturb.kappa_experiment(flow, n_points=60).x_sequence
        assert len(set(xs)) == len(xs) == 50

    def test_norm_range(self, kappa_setup):
        norms = [np.linalg.norm(x) for x in kappa_setup.x_sequence]
        assert 0.05 <= norms[0] <= 0.2
        assert 5e-5 <= norms[-1] <= 2e-4

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_too_few_points_rejected(self, companion3_const_flow, n_points):
        # a slope needs two norms; the refusal comes before any search
        with pytest.raises(ValueError, match="kappa fit"):
            perturb.kappa_experiment(companion3_const_flow, n_points=n_points)
