import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import const_roof, seven_term_roof
import oracles
from oracles import periodic_points_reference, rationalize

from anosovlab import roof as roof_module
from anosovlab.errors import NonHyperbolicPeriod, ObstructionNonzero
from anosovlab.flow import SuspensionFlow, exact_points
from anosovlab.experiments import ExperimentConfig, load_config, run_experiment
from anosovlab.roof import (
    RoofFunction,
    TrigPolynomial,
    periodic_obstructions,
    periodic_points,
    solve_coboundary,
)
from anosovlab.spectral import IntegerMatrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def planted_coboundary_roof(matrix, amplitude=0.05, freq=None):
    freq = freq or (1,) + (0,) * (matrix.dim - 1)
    u = TrigPolynomial.sine(amplitude, freq, matrix.dim)
    poly = TrigPolynomial.constant(1.0, matrix.dim) + u.compose_matrix(matrix) - u
    return RoofFunction(poly), u


def three_term_roof(dim):
    # 1.3 + 0.12 cos(2 pi x1) + 0.07 sin(2 pi (x1 + ... + xd))
    return RoofFunction(
        TrigPolynomial.constant(1.3, dim)
        + TrigPolynomial.cosine(0.12, (1,) + (0,) * (dim - 1), dim)
        + TrigPolynomial.sine(0.07, (1,) * dim, dim)
    )


class TestTrigPolynomial:
    def test_constant(self):
        p = TrigPolynomial.constant(1.0, 2)
        assert p.evaluate([0.3, 0.9]) == 1.0
        assert np.allclose(p.gradient([0.3, 0.9]), 0.0)

    def test_cosine_at_zero(self):
        p = TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)
        assert p.evaluate([0.0, 0.0]) == pytest.approx(1.1, abs=1e-15)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        p = (
            TrigPolynomial.cosine(0.3, (1, 0), 2)
            + TrigPolynomial.sine(0.2, (1, 1), 2)
            + TrigPolynomial.cosine(0.05, (2, -1), 2)
        )
        h = 1e-6
        for _ in range(100):
            x = rng.random(2)
            grad = p.gradient(x)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (p.evaluate(x + e) - p.evaluate(x - e)) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-8

    def test_rejects_asymmetric_terms(self):
        with pytest.raises(ValueError, match="Hermitian"):
            TrigPolynomial(2, {(1, 0): 1.0 + 0.0j})

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            TrigPolynomial(0, {})

    def test_rejects_frequency_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"frequency \(1, 0, 0\) does not match dimension 2"):
            TrigPolynomial(2, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5})

    def test_sum_across_dimensions_refused(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            TrigPolynomial.constant(1.0, 2) + TrigPolynomial.constant(1.0, 3)

    def test_eval_diff_matches_subtraction(self):
        p = TrigPolynomial.cosine(0.4, (2, 1), 2)
        x = np.array([0.21, 0.55])
        delta = np.array([1e-3, -2e-3])
        direct = p.evaluate(x + delta) - p.evaluate(x)
        assert p.eval_diff(x, delta) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("poly", [
        TrigPolynomial.constant(1.0, 3) + TrigPolynomial.cosine(0.05, (1, 0, 0), 3),
        seven_term_roof().poly,
        # frequencies 3, 5 and 7: their products with a point round, so one
        # gemm over the rows would not reproduce the per-point phases either
        TrigPolynomial.constant(1.0, 3) + TrigPolynomial.cosine(0.02, (3, 1, 0), 3)
        + TrigPolynomial.sine(0.03, (0, 5, -3), 3) + TrigPolynomial.cosine(0.01, (7, -1, 2), 3),
    ], ids=["bundled", "seven_term", "odd_frequencies"])
    def test_row_methods_equal_per_point_methods(self, poly):
        rng = np.random.default_rng(5)
        points = rng.random((300, 3))
        # stable gaps from 1e-16 to 1e-1, the range a leaf series walks
        deltas = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-16, -1, (300, 1))
        # the per-point references and the package's one-row calls both
        values = [oracles.evaluate(poly, x) for x in points]
        assert poly.evaluate_rows(points) == values == [poly.evaluate(x) for x in points]
        diffs = [oracles.eval_diff(poly, x, d) for x, d in zip(points, deltas)]
        assert poly.eval_diff_rows(points, deltas) == diffs == [
            poly.eval_diff(x, d) for x, d in zip(points, deltas)
        ]
        grads = [oracles.gradient(poly, x) for x in points]
        assert np.array_equal(poly.gradient_rows(points), grads)
        assert np.array_equal([poly.gradient(x) for x in points], grads)
        grad_diffs = [oracles.gradient_diff(poly, x, d) for x, d in zip(points, deltas)]
        assert np.array_equal(poly.gradient_diff_rows(points, deltas), grad_diffs)
        assert np.array_equal([poly.gradient_diff(x, d) for x, d in zip(points, deltas)],
                              grad_diffs)

    def test_compose_matrix_pushes_frequencies(self, cat_map):
        p = TrigPolynomial.cosine(1.0, (1, 0), 2)
        q = p.compose_matrix(cat_map)
        assert set(q.terms) == {(2, 1), (-2, -1)}
        x = np.array([0.3, 0.8])
        assert q.evaluate(x) == pytest.approx(
            p.evaluate(cat_map.as_array() @ x % 1.0), abs=1e-12
        )

    def test_shift(self):
        p = TrigPolynomial.cosine(1.0, (1, 0), 2)
        v = [0.25, 0.0]
        q = p.shift(v)
        x = np.array([0.6, 0.1])
        assert q.evaluate(x) == pytest.approx(p.evaluate(x - np.array(v)), abs=1e-12)

    def test_json_round_trip(self, cat_map, tmp_path):
        # livshits.json carries the solved transfer function term for term
        run_experiment(load_config(CONFIGS / "livshits_planted.json"), tmp_path)
        payload = json.loads((tmp_path / "livshits.json").read_text())["transfer_terms"]
        roof, _ = planted_coboundary_roof(cat_map)
        p = solve(roof, cat_map, 8).transfer_u
        terms = {tuple(t["k"]): complex(t["re"], t["im"]) for t in payload["terms"]}
        assert payload["dim"] == p.dim and terms == p.terms


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_evaluation_is_periodic(k1, k2, shift):
    p = TrigPolynomial.cosine(0.7, (k1, k2), 2) + TrigPolynomial.sine(0.3, (k2, k1), 2)
    x = np.array([0.37 + shift, 0.81 - shift])
    for m in ((1, 0), (0, 1), (3, -2)):
        assert p.evaluate(x + np.array(m)) == pytest.approx(p.evaluate(x), abs=1e-10)


class TestRoofFunction:
    def test_positivity_margin(self):
        roof = RoofFunction(
            TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)
        )
        assert 0.85 <= roof.positivity_margin <= 0.9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            RoofFunction(
                TrigPolynomial.constant(0.1, 2) + TrigPolynomial.cosine(0.5, (1, 0), 2)
            )

    def test_rejects_nan(self):
        # NaN compares false both ways, so a margin test must fail closed
        with pytest.raises(ValueError, match="positive"):
            RoofFunction(TrigPolynomial.constant(math.nan, 2))
        with pytest.raises(ValueError, match="positive"):
            RoofFunction(
                TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(math.nan, (1, 0), 2)
            )

    def test_constant_short_circuit(self):
        roof = const_roof(4, 2.5)
        assert roof.positivity_margin == 2.5
        assert roof.mean() == 2.5

    @pytest.mark.parametrize("dim", [2, 1, 3, 4])
    def test_only_fallback_certifies(self, dim):
        # Wiener bound 1 - 0.6 - 0.6 = -0.2, true minimum 0.325 at cos = -1/4;
        # the roof depends on x1 alone, so every dimension searches one axis
        e1 = (1,) + (0,) * (dim - 1)
        poly = (
            TrigPolynomial.constant(1.0, dim)
            + TrigPolynomial.cosine(0.6, e1, dim)
            + TrigPolynomial.cosine(0.6, tuple(2 * v for v in e1), dim)
        )
        assert roof_module._wiener_margin(poly) == pytest.approx(-0.2)
        assert 0.0 < RoofFunction(poly).positivity_margin <= 0.325

    @pytest.mark.parametrize("dim", [4, 5])
    def test_high_dimensional_margin_is_wiener_bound(self, dim):
        poly = TrigPolynomial.constant(1.0, dim) + TrigPolynomial.cosine(
            0.1, (1,) * dim, dim
        )
        margin = RoofFunction(poly).positivity_margin
        assert margin == roof_module._wiener_margin(poly)
        assert margin == pytest.approx(0.9, abs=1e-15)


def _dense_grid_min(poly: TrigPolynomial, n: int = 256) -> float:
    axis = np.arange(n) / n
    mesh = np.meshgrid(axis, axis, indexing="ij")
    return float(poly.evaluate_many(np.stack([m.ravel() for m in mesh], axis=1)).min())


_roof_terms = st.lists(
    st.tuples(
        st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (1, -2)]),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
    ),
    min_size=2,
    max_size=4,
    unique_by=lambda term: term[0],
)


@settings(max_examples=30, deadline=None)
@given(_roof_terms, st.floats(0.01, 0.3))
@example([((1, 0), 0.05, 0.0)], 0.5)
@example([((1, 0), 0.3, 0.0), ((2, 0), 0.3, 0.0)], 0.2)
def test_margin_is_a_lower_bound(terms, lift):
    # the constant sits lift * sum |c_k| above the grid minimum of the
    # oscillating part, so both the Wiener path and the fallback occur
    wave = TrigPolynomial.constant(0.0, 2)
    for k, re, im in terms:
        neg = tuple(-v for v in k)
        wave = wave + TrigPolynomial(2, {k: complex(re, im), neg: complex(re, -im)})
    if wave.is_constant():
        return
    l1 = sum(abs(c) for c in wave.terms.values())
    poly = wave + TrigPolynomial.constant(lift * l1 - _dense_grid_min(wave), 2)
    path = "wiener" if roof_module._wiener_margin(poly) > 0 else "fallback"
    try:
        margin = RoofFunction(poly).positivity_margin
    except ValueError:
        event(f"{path} refused")
        return
    event(f"{path} accepted")
    # the grid minimum bounds the true minimum from above, up to its own
    # float evaluation error
    assert 0.0 < margin <= _dense_grid_min(poly) + 1e-12


def seeded_trig_roof(dim, seed):
    # 1 + three random cosine and sine terms of total amplitude < 0.3
    rng = np.random.default_rng(seed)
    poly = TrigPolynomial.constant(1.0, dim)
    for term in (TrigPolynomial.cosine, TrigPolynomial.sine, TrigPolynomial.cosine):
        freq = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
        poly = poly + term(float(rng.uniform(0.01, 0.1)), freq, dim)
    return RoofFunction(poly)


def _record_keys(orbits):
    return [
        (o.numerators, o.den, o.period_n, None if o.flow_period is None else o.flow_period.hex())
        for o in orbits
    ]


@pytest.fixture
def wide_v():
    # at n = 3, M^3 - I has 76 points over den 76, and the V of its
    # unimodular diagonalization has the entry -224, beyond den
    return IntegerMatrix([[5, -1], [4, -1]])


@pytest.fixture
def non_chain():
    # x^3 - 3x^2 - 2x - 1: at n = 4 the diagonal [1, 3, 65] of M^4 - I is
    # no divisibility chain, so its 195 points need the lcm 195, not 65
    return IntegerMatrix.companion([-1, -2, -3, 1])


class TestPeriodicPoints:
    def test_cat_map_fixed_point(self, cat_map):
        orbits = periodic_points(cat_map, 1)
        assert len(orbits) == 1
        assert orbits[0].numerators == ((0, 0),)

    def test_cat_map_period_two_count(self, cat_map):
        orbits = periodic_points(cat_map, 2)
        assert sum(o.period_n for o in orbits) == 5

    def test_count_law_matches_float_determinant(self, cat_map, companion3):
        # oracle: |det(M^n - I)| via numpy on the exact integer entries
        from anosovlab import intlinalg

        for matrix in (cat_map, companion3):
            for n in range(1, 9):
                d = intlinalg.mat_sub(matrix.power(n), intlinalg.identity(matrix.dim))
                oracle = abs(int(round(np.linalg.det(np.array(d, dtype=float)))))
                count = sum(o.period_n for o in periodic_points(matrix, n))
                assert count == oracle

    @pytest.mark.parametrize(
        "name,n",
        [("cat_map", 4), ("companion3", 4), ("quartic_real", 3), ("non_chain", 4)],
    )
    def test_orbits_cycle_exactly(self, request, name, n):
        # quartic_real at n = 3: 61 points, diagonal [1, 1, 1, 61]
        matrix = request.getfixturevalue(name)
        orbits = periodic_points(matrix, n)
        d = matrix.dim
        for orbit in orbits:
            assert orbit.numerators[0] == orbit.representative()
            pts = [tuple(Fraction(c, orbit.den) for c in p) for p in orbit.numerators]
            for i, p in enumerate(pts):
                image = tuple(
                    (sum(Fraction(matrix.entries[r][c]) * p[c] for c in range(d))) % 1
                    for r in range(d)
                )
                assert image == pts[(i + 1) % len(pts)]
        keys = [(o.period_n, o.representative()) for o in orbits]
        assert keys == sorted(keys)

    def test_unbounded_enumeration_refused(self, cat_map):
        # |det(M^30 - I)| = 3.46e12 points
        with pytest.raises(ValueError, match="MAX_PERIODIC_POINTS"):
            periodic_points(cat_map, 30)
        with pytest.raises(ValueError, match="MAX_PERIODIC_POINTS"):
            periodic_obstructions(const_roof(2), cat_map, 30)

    def test_root_of_unity_raises(self):
        rot = IntegerMatrix([[0, -1], [1, 0]])
        with pytest.raises(NonHyperbolicPeriod):
            periodic_points(rot, 4)

    def test_period_zero_refused(self, cat_map):
        with pytest.raises(ValueError, match="n must be at least 1"):
            periodic_points(cat_map, 0)
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            periodic_obstructions(const_roof(2), cat_map, 0)

    def test_flow_periods_positive(self, cat_map):
        roof, _ = planted_coboundary_roof(cat_map)
        for orbit in periodic_points(cat_map, 3, roof=roof):
            assert orbit.flow_period > 0

    @pytest.mark.parametrize("name,n_max", [("cat_map", 8), ("companion3", 4)])
    def test_flow_periods_equal_per_point_sum(self, request, name, n_max):
        # one row evaluation per cycle keeps every bit of the sum of
        # per-point roof values at the float points c / den
        matrix = request.getfixturevalue(name)
        roof = three_term_roof(matrix.dim)
        for n in range(1, n_max + 1):
            for orbit in periodic_points(matrix, n, roof=roof):
                den = orbit.den
                per_point = sum(roof(tuple(c / den for c in p)) for p in orbit.numerators)
                assert orbit.flow_period.hex() == float(per_point).hex()

    @pytest.mark.parametrize("name,levels", [
        ("cat_map", range(1, 9)), ("companion3", range(1, 6)), ("quartic_real", range(1, 4)),
        ("non_chain", [4]), ("wide_v", range(1, 5)),
    ])
    def test_records_equal_python_int_enumeration(self, request, name, levels):
        # numerators, den, period and every bit of the flow period, in order
        matrix = request.getfixturevalue(name)
        for n in levels:
            roof = seeded_trig_roof(matrix.dim, seed=n)
            assert _record_keys(periodic_points(matrix, n, roof=roof)) == _record_keys(
                periodic_points_reference(matrix, n, roof=roof))
            assert _record_keys(periodic_points(matrix, n)) == _record_keys(
                periodic_points_reference(matrix, n))

    def test_wide_v_exceeds_den(self, wide_v):
        # so the records test above feeds periodic_points V entries to reduce mod den
        from anosovlab import intlinalg

        _, s, v = intlinalg.unimodular_diagonalize(roof_module._fix_matrix(wide_v, 3))
        den = math.lcm(s[0][0], s[1][1])
        assert max(abs(x) for row in v for x in row) > den

    @pytest.mark.parametrize("name,n_max", [("cat_map", 8), ("companion3", 5)])
    def test_obstruction_averages_equal_python_int_enumeration(self, request, name, n_max):
        matrix = request.getfixturevalue(name)
        roof = seeded_trig_roof(matrix.dim, seed=11)
        expected = [
            (o.flow_period / o.period_n).hex()
            for n in range(1, n_max + 1)
            for o in periodic_points_reference(matrix, n, roof=roof) if o.period_n == n
        ]
        report = periodic_obstructions(roof, matrix, n_max)
        assert [a.hex() for a in report.averages] == expected


class TestBirkhoffSums:
    def test_constant_roof(self, cat_map):
        flow = SuspensionFlow(cat_map, const_roof(2, 2.5))
        assert flow.birkhoff_exact(*exact_points([(0.3, 0.7)]), 4) == [pytest.approx(10.0)]

    def test_telescoping_on_periodic_orbits(self, cat_map):
        roof, _ = planted_coboundary_roof(cat_map)
        for orbit in periodic_points(cat_map, 5, roof=roof):
            assert orbit.flow_period == pytest.approx(orbit.period_n * 1.0, abs=1e-12)

    def test_against_compensated_summation(self, cat_map):
        # birkhoff_exact against the correctly rounded sum over the orbit
        # walked in Fractions, one point at a time
        flow = SuspensionFlow(cat_map, three_term_roof(2))
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = tuple(rng.random(2))
            n = int(rng.integers(1, 40))
            point, values = rationalize(x), []
            for _ in range(n):
                values.append(flow.roof(tuple(float(c) for c in point)))
                point = flow.base_apply_exact(point)
            assert flow.birkhoff_exact(*exact_points([x]), n)[0] == pytest.approx(
                math.fsum(values), abs=1e-11)


class TestObstructions:
    def test_constant_roof_zero_spread(self, cat_map):
        report = periodic_obstructions(const_roof(2), cat_map, 5)
        assert report.spread == 0.0
        assert all(a == pytest.approx(1.0) for a in report.averages)

    def test_planted_coboundary_tiny_spread(self, cat_map):
        roof, _ = planted_coboundary_roof(cat_map)
        assert periodic_obstructions(roof, cat_map, 6).spread <= 1e-12

    def test_cos_roof_large_spread(self, cat_map):
        roof = RoofFunction(
            TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)
        )
        assert periodic_obstructions(roof, cat_map, 6).spread > 1e-3

    def test_csv_rows(self, cat_map, tmp_path):
        report = periodic_obstructions(const_roof(2), cat_map, 3)
        header, rows = obstruction_csv(cat_map, 3, tmp_path)
        assert header == ["period_n", "orbit_repr", "average"]
        assert len(rows) == len(report.orbits)
        assert all(len(row) == len(header) for row in rows)
        # period-3 points sit over den 4; (0, 2/4) is written reduced
        assert [row[1] for row in rows] == [
            "0/1;0/1", "1/5;2/5", "2/5;4/5",
            "0/1;1/4", "0/1;1/2", "0/1;3/4", "1/4;0/1", "1/2;3/4",
        ]

    @pytest.mark.parametrize("name,n_max", [("cat_map", 5), ("non_chain", 4)])
    def test_csv_representative_is_least_reduced_point(self, request, tmp_path, name, n_max):
        # the orbit_repr text is the least point of the orbit as reduced
        # fractions n/d, even where d is 1 or divides the common denominator
        matrix = request.getfixturevalue(name)
        report = periodic_obstructions(const_roof(matrix.dim), matrix, n_max)
        _, rows = obstruction_csv(matrix, n_max, tmp_path)
        assert len(rows) == len(report.orbits)
        for orbit, row in zip(report.orbits, rows):
            least = min(tuple(Fraction(c, orbit.den) for c in p) for p in orbit.numerators)
            assert row[1] == ";".join(f"{v.numerator}/{v.denominator}" for v in least)


def obstruction_csv(matrix, n_max, out):
    """Header and rows of obstructions.csv from a constant-roof livshits run."""
    cfg = ExperimentConfig.from_dict({
        "kind": "livshits",
        "matrix": {"entries": [list(row) for row in matrix.entries]},
        "roof": {"constant": 1.0},
        "params": {"trunc": 1, "n_max": n_max},
    })
    run_experiment(cfg, out)
    header, *rows = (out / "obstructions.csv").read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def solve(roof, matrix, trunc):
    """solve_coboundary with the obstructions of the orbits of period <= 6."""
    return solve_coboundary(roof, matrix, trunc, periodic_obstructions(roof, matrix, 6))


class TestSolveCoboundary:
    def test_recovers_planted_transfer(self, cat_map):
        roof, u = planted_coboundary_roof(cat_map)
        sol = solve(roof, cat_map, 8)
        assert sol.constant_c == pytest.approx(1.0, abs=1e-12)
        assert sol.residual_sup <= 1e-9
        assert sol.obstruction_spread <= 1e-12
        # recovered transfer matches the planted one up to a constant
        for k, c in u.terms.items():
            assert sol.transfer_u.terms.get(k, 0.0) == pytest.approx(c, abs=1e-12)

    def test_constant_roof(self, cat_map):
        sol = solve(const_roof(2), cat_map, 1)
        assert sol.constant_c == 1.0
        assert len(sol.transfer_u.terms) == 0
        assert sol.residual_sup == 0.0

    def test_obstructed_roof_rejected(self, cat_map):
        roof = RoofFunction(
            TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)
        )
        with pytest.raises(ObstructionNonzero):
            solve(roof, cat_map, 8)

    def test_trunc_must_cover_support(self, cat_map):
        roof, _ = planted_coboundary_roof(cat_map)  # support reaches (2, 1)
        with pytest.raises(ValueError, match="trunc"):
            solve(roof, cat_map, 1)

    def test_residual_consistent_on_finer_grid(self, cat_map, companion3):
        for matrix in (cat_map, companion3):
            roof, _ = planted_coboundary_roof(matrix)
            sol = solve(roof, matrix, 10)
            # independent finer grid
            rng = np.random.default_rng(13)
            pts = rng.random((16384, matrix.dim))
            um = sol.transfer_u.compose_matrix(matrix)
            vals = (
                um.evaluate_many(pts)
                - sol.transfer_u.evaluate_many(pts)
                - (roof.poly.evaluate_many(pts) - sol.constant_c)
            )
            finer = float(np.max(np.abs(vals)))
            assert finer <= max(2.0 * sol.residual_sup, 1e-12)

    def test_refined_cutoff_is_returned(self, cat_map, monkeypatch):
        # the first cutoff loses one +-k pair, the doubled one is complete:
        # the solver must hand back the refined solution and its residual
        roof, _ = planted_coboundary_roof(cat_map)
        full = roof_module._telescope_terms

        def lossy(poly, matrix, trunc):
            terms = full(poly, matrix, trunc)
            if trunc == 8:
                k = next(iter(terms))
                del terms[k], terms[tuple(-v for v in k)]
            return terms

        monkeypatch.setattr(roof_module, "_telescope_terms", lossy)
        sol = solve(roof, cat_map, 8)
        assert sol.residual_sup <= 1e-9
        assert sol.transfer_u.terms == TrigPolynomial(2, full(roof.poly, cat_map, 16)).terms

    def test_high_frequency_plant(self, companion3):
        roof, u = planted_coboundary_roof(companion3, amplitude=0.03, freq=(1, 1, 0))
        sol = solve(roof, companion3, 12)
        assert sol.residual_sup <= 1e-9


class TestConstantEquivalence:
    """The livshits verdict: all periodic orbit averages agree to 1e-8."""

    @staticmethod
    def equivalent(roof, matrix, n_max=6):
        return periodic_obstructions(roof, matrix, n_max).spread <= 1e-8

    def test_constant_roof(self, cat_map):
        assert self.equivalent(const_roof(2), cat_map)

    def test_planted_coboundary(self, cat_map):
        roof, _ = planted_coboundary_roof(cat_map)
        assert self.equivalent(roof, cat_map)

    def test_cos_roof_is_not(self, cat_map):
        roof = RoofFunction(
            TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)
        )
        assert not self.equivalent(roof, cat_map)

    def test_invariant_under_adding_coboundary(self, cat_map):
        base = RoofFunction(
            TrigPolynomial.constant(1.0, 2) + TrigPolynomial.cosine(0.1, (1, 0), 2)
        )
        u = TrigPolynomial.sine(0.04, (0, 1), 2)
        shifted = RoofFunction(base.poly + u.compose_matrix(cat_map) - u)
        for n_max in (4, 6):
            assert self.equivalent(
                base, cat_map, n_max=n_max
            ) == self.equivalent(shifted, cat_map, n_max=n_max)
            # a coboundary leaves every orbit average as it was
            assert periodic_obstructions(shifted, cat_map, n_max).averages == pytest.approx(
                periodic_obstructions(base, cat_map, n_max).averages, abs=1e-12
            )
