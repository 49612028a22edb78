import random
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_roof, cos_roof
from oracles import (
    base_apply, certified_sum, distance_mp, evolve_mp, kahan_birkhoff, limb_numerators,
    make_point, numerators, orbit_numerators, projected, python_int_segments, rationalize,
    time_adjustment_reference,
)

from anosovlab import flow as flow_module
from anosovlab import experiments, intlinalg, mpspec, pcf, perturb
from anosovlab.errors import OffLeaf, TruncationInsufficient
from anosovlab.flow import SuspensionFlow, affine_orbit, exact_points, wrap_unit
from anosovlab.roof import TrigPolynomial
from anosovlab.spectral import IntegerMatrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# segment sizes of the batched series: one point, a small size that ends
# most series mid-segment, and the default
SEGMENTS = [1, 7, flow_module.SEGMENT]



class TestEvolve:
    # the oracle's make_point(flow, x, s + t) is the flow for time t
    def test_time_zero_is_identity(self, cat_flow):
        p = make_point(cat_flow, [0.3, 0.55], 0.2)
        assert distance_mp(cat_flow, make_point(cat_flow, *p), p) == 0.0

    def test_constant_roof_single_crossing(self, cat_map):
        flow = SuspensionFlow(cat_map, const_roof(2))
        x, s = make_point(flow, [0.3, 0.7], 1.0)
        expected = base_apply(flow, np.array([0.3, 0.7]))
        assert np.allclose(x, expected, atol=1e-14)
        assert s == pytest.approx(0.0, abs=1e-14)

    def test_additivity_forward(self, cat_flow):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x, s = make_point(cat_flow, rng.random(2), 0.0)
            t1, t2 = rng.uniform(0.0, 100.0, 2)
            x1, s1 = make_point(cat_flow, x, s + t1)
            a = make_point(cat_flow, x1, s1 + t2)
            b = make_point(cat_flow, x, s + t1 + t2)
            worst = max(worst, distance_mp(cat_flow, a, b))
        assert worst <= 1e-9

    def test_additivity_shallow_mixed_signs(self, cat_flow):
        # deep backward-then-forward excursions amplify double rounding at
        # the Lyapunov rate, so the additivity check keeps excursions short
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(100):
            x, s = make_point(cat_flow, rng.random(2), 0.0)
            t1, t2 = rng.uniform(-8.0, 8.0, 2)
            x1, s1 = make_point(cat_flow, x, s + t1)
            a = make_point(cat_flow, x1, s1 + t2)
            b = make_point(cat_flow, x, s + t1 + t2)
            worst = max(worst, distance_mp(cat_flow, a, b))
        assert worst <= 1e-9

    def test_roof_crossing_consistency(self, cat_flow, cat_map):
        x0 = np.array([0.123, 0.456])
        for n in range(1, 21):
            t = kahan_birkhoff(cat_flow.roof, cat_map, tuple(x0), n)
            q = make_point(cat_flow, x0, t)
            xn = x0.copy()
            for _ in range(n):
                xn = base_apply(cat_flow, xn)
            assert distance_mp(cat_flow, q, (xn, 0.0)) <= 1e-8


class TestDistance:
    def test_identification_straddling(self, cat_flow):
        x = np.array([0.37, 0.21])
        r = cat_flow.roof(x)
        below = make_point(cat_flow, x, r - 1e-6)
        above = make_point(cat_flow, below[0], below[1] + 2e-6)
        assert distance_mp(cat_flow, below, above) <= 1e-5


class TestTimeAdjustment:
    def test_constant_roof_vanishes(self, cat_map):
        flow = SuspensionFlow(cat_map, const_roof(2))
        sdir = flow.stable_frame()[:, 0]
        x = np.array([0.3, 0.55])
        assert flow.time_adjustment([(x, x + 0.03 * sdir, "stable")]) == [0.0]

    def test_same_point_vanishes(self, cat_flow):
        x = np.array([0.3, 0.55])
        assert cat_flow.time_adjustment([(x, x, "stable"), (x, x, "unstable")]) == [0.0, 0.0]

    def test_off_leaf_rejection(self, cat_flow):
        x = np.array([0.3, 0.55])
        with pytest.raises(OffLeaf):
            cat_flow.time_adjustment([(x, x + np.array([0.01, 0.0]), "stable")])

    def test_bad_direction_refused(self, cat_flow):
        x = np.array([0.3, 0.55])
        with pytest.raises(ValueError, match="direction must be 'stable' or 'unstable'"):
            cat_flow.time_adjustment([(x, x, "weak")])

    def test_defining_property_stable(self, cat_flow, cat_map):
        # the adjusted point must track (x, 0) forward in time: distance at
        # t = 30 below 1e-6 with the adjustment, above 1e-2 without
        split = mpspec.splitting(cat_map)
        x = [Fraction(3, 10), Fraction(11, 20)]
        w_fr = projected(split, 0.04 * cat_flow.stable_frame()[:, 0], "stable")
        y_fr = [a + b for a, b in zip(x, w_fr)]
        [delta] = cat_flow.time_adjustment(
            [([float(v) for v in x], [float(v) for v in y_fr], "stable")]
        )
        a30 = evolve_mp(cat_flow, x, 0.0, 30.0)
        b30 = evolve_mp(cat_flow, y_fr, delta, 30.0)
        b30_bare = evolve_mp(cat_flow, y_fr, 0.0, 30.0)
        assert distance_mp(cat_flow, a30, b30) < 1e-6
        assert distance_mp(cat_flow, a30, b30_bare) > 1e-2

    def test_defining_property_unstable(self, cat_flow, cat_map):
        split = mpspec.splitting(cat_map)
        x = [Fraction(3, 10), Fraction(11, 20)]
        u_fr = projected(split, 0.04 * cat_flow.unstable_frame()[:, 0], "unstable")
        y_fr = [a + b for a, b in zip(x, u_fr)]
        [delta] = cat_flow.time_adjustment(
            [([float(v) for v in x], [float(v) for v in y_fr], "unstable")]
        )
        a = evolve_mp(cat_flow, x, 0.0, -30.0)
        b = evolve_mp(cat_flow, y_fr, delta, -30.0)
        assert distance_mp(cat_flow, a, b) < 1e-6

    def test_companion3_unstable_series_converges(self, companion3_flow):
        x = np.array([0.21, 0.47, 0.83])
        u = companion3_flow.unstable_frame() @ np.array([0.02, 0.013])
        [value] = companion3_flow.time_adjustment([(x, x + u, "unstable")])
        assert np.isfinite(value) and abs(value) < 0.1


def _request_pool(flow, seed):
    """Leaf requests of both directions around sampled quadrilaterals, with
    zero displacements and a repeat among them."""
    pool = []
    for q in pcf.sample_quadrilaterals(flow, 3, seed=seed):
        a = np.asarray(q.a)
        pool += [(a, a + q.s_disp, "stable"), (a, a + q.u_disp, "unstable"),
                 (a + q.u_disp, a + q.u_disp + q.s_disp, "stable"), (a, a, "unstable")]
    return pool + [pool[0], (pool[1][0], pool[1][0], "stable")]


@pytest.fixture(scope="module")
def batch_cases(companion3_flow, companion3_const_flow, quartic_real):
    """name -> (flow, request pool, float.hex of each request run alone)."""
    flows = {
        "companion3": companion3_flow,
        "quartic": SuspensionFlow(quartic_real, cos_roof(4, amplitude=0.01)),
        "constant": companion3_const_flow,
    }
    cases = {}
    for seed, (name, flow) in enumerate(flows.items()):
        pool = _request_pool(flow, seed)
        cases[name] = flow, pool, [time_adjustment_reference(flow, *r).hex() for r in pool]
    return cases


class TestLeafPart:
    @pytest.mark.parametrize("direction", ["stable", "unstable"])
    def test_returns_the_leaf_part(self, companion3_flow, direction):
        flow = companion3_flow
        frame = flow.stable_frame() if direction == "stable" else flow.unstable_frame()
        v = frame @ np.full(frame.shape[1], 0.02)
        assert np.max(np.abs(flow.leaf_part(v, direction) - v)) <= 1e-16

    @pytest.mark.parametrize("direction", ["stable", "unstable"])
    def test_one_tolerance_for_both_leaves(self, cat_flow, direction):
        # the transverse frame column has unit norm, so its scale is the
        # transverse part: under LEAF_TOL passes, over it refuses
        flow = cat_flow
        along, across = flow.stable_frame()[:, 0], flow.unstable_frame()[:, 0]
        if direction == "unstable":
            along, across = across, along
        flow.leaf_part(0.02 * along + 0.5 * flow_module.LEAF_TOL * across, direction)
        with pytest.raises(OffLeaf, match=f"{direction} displacement has transverse part 2.00e-12"):
            flow.leaf_part(0.02 * along + 2.0 * flow_module.LEAF_TOL * across, direction)

    def test_bad_direction_refused(self, cat_flow):
        with pytest.raises(ValueError, match="direction must be 'stable' or 'unstable'"):
            cat_flow.leaf_part(np.zeros(2), "weak")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("direction", ["stable", "unstable"])
    def test_non_finite_rows_refused(self, companion3_flow, direction, bad):
        # a NaN norm is not over LEAF_TOL either: the test fails closed
        with pytest.raises(OffLeaf):
            companion3_flow.leaf_part([bad, 0.0, 0.0], direction)
        rows = np.zeros((3, 3))
        rows[1, 2] = bad
        with pytest.raises(OffLeaf):
            companion3_flow.leaf_part(rows, direction)


class TestBatch:
    """The batched leaf series equal the one-request reference, bit for bit."""

    @pytest.mark.parametrize("name", ["companion3", "quartic", "constant"])
    def test_pool_matches_reference(self, batch_cases, name):
        flow, pool, expected = batch_cases[name]
        assert [v.hex() for v in flow.time_adjustment(pool)] == expected
        assert flow.time_adjustment([]) == []

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["companion3", "quartic"]), data=st.data())
    def test_value_independent_of_batch(self, batch_cases, name, data):
        # any sub-batch, in any order and with repeats, gives each request
        # the value it has alone
        flow, pool, expected = batch_cases[name]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
        values = flow.time_adjustment([pool[i] for i in picks])
        assert [v.hex() for v in values] == [expected[i] for i in picks]

    def test_mixed_denominators_match_alone(self, companion3_flow, monkeypatch):
        # a batch walks over the lcm of its starts' denominators, so the one
        # start with a coordinate under 2^-12 moves every row of both
        # directions off uint64 and onto the limb kernel
        flow = companion3_flow
        rng = np.random.default_rng(17)
        starts = [rng.random(3) for _ in range(11)] + [np.array([3e-9, 0.41, 0.77])]
        requests = [(x, x + flow.stable_frame() @ rng.uniform(-0.02, 0.02, 1), "stable")
                    for x in starts]
        requests += [(x, x + flow.unstable_frame() @ rng.uniform(-0.02, 0.02, 2), "unstable")
                     for x in starts]
        alone = [flow.time_adjustment([r])[0].hex() for r in requests]
        dens = []
        walk = intlinalg.orbit_segments

        def recording(a, offset, starts, den, *args, **kwargs):
            dens.append(den)
            return walk(a, offset, starts, den, *args, **kwargs)

        monkeypatch.setattr(intlinalg, "orbit_segments", recording)
        assert [v.hex() for v in flow.time_adjustment(requests)] == alone
        assert len(dens) == 2 and min(dens) > 2**64
        dens.clear()
        flow.time_adjustment(requests[:11] + requests[12:23])
        assert len(dens) == 2 and max(dens) <= 2**64

    def test_one_orbit_walk_per_direction(self, companion3_flow, monkeypatch):
        # a batch of several series per direction walks one lockstep orbit
        # per direction, not one orbit per series
        flow = companion3_flow
        x = np.array([0.21, 0.47, 0.83])
        requests = [(x + shift, x + shift + flow.stable_frame() @ [0.02], "stable")
                    for shift in (0.0, 0.1, 0.2)]
        requests += [(x + shift, x + shift + flow.unstable_frame() @ [0.02, 0.01], "unstable")
                     for shift in (0.0, 0.1, 0.2)]
        calls = []
        walk = intlinalg.orbit_segments

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return walk(*args, **kwargs)

        monkeypatch.setattr(intlinalg, "orbit_segments", counting)
        flow.time_adjustment(requests)
        assert calls == [3, 3]

    def test_mixed_batch_matches_one_call_per_request(self, companion3_flow):
        # both directions interleaved, a repeat, a zero displacement, and
        # corners given as Fractions, read in the one array pass
        flow = companion3_flow
        x = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))
        xf = np.array([float(v) for v in x])
        s = flow.stable_frame() @ [0.02]
        u = flow.unstable_frame() @ [0.01, -0.02]
        requests = [
            (x, tuple(v + Fraction(d) for v, d in zip(x, s)), "stable"),
            (xf, xf + u, "unstable"),
            (xf + u, xf + u + s, "stable"),
            (x, x, "unstable"),
            (xf, xf + u, "unstable"),
            (list(xf), list(xf + s), "stable"),
        ]
        requests.append(requests[0])
        alone = [flow.time_adjustment([r])[0].hex() for r in requests]
        assert alone[3] == (0.0).hex() and alone[1] == alone[4] and alone[0] == alone[6]
        assert [v.hex() for v in flow.time_adjustment(requests)] == alone
        reference = [time_adjustment_reference(flow, *r).hex() for r in requests]
        assert alone == reference

    def test_bad_direction_refused_before_any_work(self, companion3_flow, monkeypatch):
        # the direction is checked for every request before the leaf test
        # of the off-leaf first request, and before any series runs
        flow = companion3_flow
        x = np.array([0.21, 0.47, 0.83])

        def no_series(*args):
            raise AssertionError("a series ran")

        monkeypatch.setattr(flow_module, "certified_sums", no_series)
        with pytest.raises(ValueError, match="direction must be 'stable' or 'unstable'"):
            flow.time_adjustment([
                (x, x + np.array([0.01, 0.0, 0.0]), "stable"),
                (x, x + flow.stable_frame() @ [0.02], "stable"),
                (x, x + flow.unstable_frame() @ [0.02, 0.01], "unstable"),
                (x, x, "weak"),
            ])

    def test_nan_request_refused_on_constant_roof(self, companion3_const_flow):
        # the constant roof answers 0.0 without a series, but not before the
        # leaf test has seen the NaN displacement
        x = np.array([0.21, 0.47, 0.83])
        with pytest.raises(OffLeaf):
            companion3_const_flow.time_adjustment([(x, x + [np.nan, 0.0, 0.0], "stable")])

    def test_off_leaf_request_refuses_batch(self, companion3_flow):
        flow = companion3_flow
        x = np.array([0.21, 0.47, 0.83])
        with pytest.raises(OffLeaf):
            flow.time_adjustment([
                (x, x + flow.stable_frame() @ [0.02], "stable"),
                (x, x + np.array([0.01, 0.0, 0.0]), "unstable"),
                (x, x + flow.unstable_frame() @ [0.02, 0.01], "unstable"),
            ])

    # the stable series below need 69 and 105 terms, the unstable one 212:
    # under each cap the first request finishes alone, the second does not
    @pytest.mark.parametrize("cap, short, long", [
        (80, ("stable", [1e-6]), ("stable", [0.02])),
        (150, ("stable", [0.02]), ("unstable", [0.02, 0.02])),
    ])
    def test_series_past_cap_refuses_batch(self, companion3_flow, monkeypatch, cap, short, long):
        flow = companion3_flow
        x = np.array([0.21, 0.47, 0.83])

        def request(direction, coef):
            frame = flow.stable_frame() if direction == "stable" else flow.unstable_frame()
            return x, x + frame @ coef, direction

        alone = flow.time_adjustment([request(*short)])
        monkeypatch.setattr(flow_module, "MAX_TERMS", cap)
        assert flow.time_adjustment([request(*short)]) == alone
        with pytest.raises(TruncationInsufficient, match=f"within {cap} terms"):
            flow.time_adjustment([request(*long)])
        with pytest.raises(TruncationInsufficient, match=f"within {cap} terms"):
            flow.time_adjustment([request(*short), request(*long), request(*short)])


    @staticmethod
    def _mixed_requests(flow, seed):
        # both directions interleaved, with repeated gaps from different
        # starts; the stable series, at rate lambda ~ 0.75, close rounds
        # before the unstable ones, at 1 / xi_min ~ 0.87
        rng = np.random.default_rng(seed)
        s = flow.stable_frame() @ [0.02]
        u = flow.unstable_frame() @ [0.01, -0.015]
        starts = [rng.random(3) for _ in range(4)]
        stable = [(x, x + s, "stable") for x in starts]
        stable.append((starts[0], starts[0] + s / 2, "stable"))
        unstable = [(x, x + u, "unstable") for x in starts]
        unstable.append((starts[1], starts[1] - u, "unstable"))
        return stable, unstable, [r for pair in zip(stable, unstable) for r in pair]

    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_both_directions_in_one_batch_match_alone(self, companion3_flow, monkeypatch, segment):
        # one lockstep batch of both directions gives each request its value
        # alone, bit for bit. Each round draws one block of each direction's
        # orbit while that direction has an open series: as many blocks as
        # that direction alone, in turn with the other direction's
        flow = companion3_flow
        monkeypatch.setattr(flow_module, "SEGMENT", segment)
        stable, unstable, requests = self._mixed_requests(flow, 29)
        alone = [flow.time_adjustment([r])[0].hex() for r in requests]
        walks, draws = [], []   # draws: the walk index of each block drawn, in turn
        walk = intlinalg.orbit_segments

        def recording(*args, **kwargs):
            index = len(walks)
            walks.append(index)
            for block in walk(*args, **kwargs):
                draws.append(index)
                yield block

        monkeypatch.setattr(intlinalg, "orbit_segments", recording)
        flow.time_adjustment(stable)
        short = len(draws)
        draws.clear()
        flow.time_adjustment(unstable)
        long = len(draws)
        assert short < long
        walks.clear()
        draws.clear()
        assert [v.hex() for v in flow.time_adjustment(requests)] == alone
        assert len(walks) == 2
        assert draws == [0, 1] * short + [1] * (long - short)

    @staticmethod
    def _distinct_gaps(requests):
        # the (direction, gap) rows of a batch, gap bytes as time_adjustment reads them
        return {(direction, wrap_unit(np.asarray(y, dtype=float) % 1.0
                                      - np.asarray(x, dtype=float) % 1.0).tobytes())
                for x, y, direction in requests}

    def test_one_walk_per_round_serves_both_directions(self, companion3_flow, monkeypatch):
        # each round advances every distinct open gap, of both directions,
        # with one walk_states call; the distinct unstable gaps' one
        # backward step before the rounds is one call more
        flow = companion3_flow
        stable, unstable, requests = self._mixed_requests(flow, 31)
        calls = []
        walk = flow_module.walk_states

        def recording(state, matrices, length):
            calls.append((len(state), length))
            return walk(state, matrices, length)

        monkeypatch.setattr(flow_module, "walk_states", recording)

        def rounds(batch):
            calls.clear()
            flow.time_adjustment(batch)
            return [rows for rows, length in calls if length == flow_module.SEGMENT]

        stable_rounds, unstable_rounds = len(rounds(stable)), len(rounds(unstable))
        assert calls[0] == (len(self._distinct_gaps(unstable)), 1)
        walks = rounds(requests)
        assert len(calls) == len(walks) + 1
        assert len(walks) == max(stable_rounds, unstable_rounds) < stable_rounds + unstable_rounds
        assert walks[0] == len(self._distinct_gaps(requests)) < len(requests)

    @pytest.mark.parametrize("batch", [2, 5, flow_module.BATCH_ORBITS])
    def test_eval_blocks_hold_at_most_batch_orbits_series(
            self, companion3_flow, monkeypatch, batch):
        # every orbit-factor block of a batch takes at most BATCH_ORBITS
        # distinct starts of one segment each, and the values are those alone
        flow = companion3_flow
        rng = np.random.default_rng(43)
        s, u = flow.stable_frame(), flow.unstable_frame()
        requests = []
        for _ in range(20):
            x = rng.random(3)
            requests += [(x, x + s @ rng.uniform(-0.02, 0.02, 1), "stable"),
                         (x, x + u @ rng.uniform(-0.02, 0.02, 2), "unstable")]
        alone = [flow.time_adjustment([r])[0].hex() for r in requests]
        sizes = []
        evaluate = TrigPolynomial.orbit_factors

        def recording(poly, points):
            sizes.append(len(points))
            return evaluate(poly, points)

        monkeypatch.setattr(TrigPolynomial, "orbit_factors", recording)
        monkeypatch.setattr(flow_module, "BATCH_ORBITS", batch)
        assert [v.hex() for v in flow.time_adjustment(requests)] == alone
        starts = {(direction, x.tobytes()) for x, _, direction in requests}
        assert max(sizes) == min(batch, len(starts)) * flow_module.SEGMENT

    def test_repeated_starts_and_gaps_are_walked_once(self, companion3_flow, monkeypatch):
        # one start with 12 unstable gaps, 12 starts sharing one stable gap,
        # and mixed repeats: each distinct (direction, start) is one row of
        # its direction's orbit walk and each distinct (direction, gap) one
        # row of each gap walk, and every value is that of its request alone
        flow = companion3_flow
        rng = np.random.default_rng(47)
        # corners in [0.55, 0.9) and gaps under 0.02 keep x and x + gap in
        # one binade, so y - x carries the same bytes from every corner
        corners = [rng.uniform(0.55, 0.9, 3) for _ in range(12)]
        s = flow.stable_frame() @ [0.015]
        us = [flow.unstable_frame() @ rng.uniform(-0.01, 0.01, 2) for _ in range(12)]
        x0 = corners[0]
        stable = [(x, x + s, "stable") for x in corners]
        unstable = [(x0, x0 + u, "unstable") for u in us]
        mixed = [(x0, x0 + s / 2, "stable"), stable[3], unstable[5],
                 (corners[1], corners[1] + us[0], "unstable")]
        requests = [r for pair in zip(stable, unstable) for r in pair] + mixed
        gaps = self._distinct_gaps(requests)
        assert len(gaps) == 2 + 12
        assert len(self._distinct_gaps(stable + unstable)) == 1 + 12
        alone = [flow.time_adjustment([r])[0].hex() for r in requests]
        walked, rows = [], []
        orbit_walk, gap_walk = intlinalg.orbit_segments, flow_module.walk_states

        def orbit_spy(a, offset, starts, den, *args, **kwargs):
            walked.append(len(starts))
            return orbit_walk(a, offset, starts, den, *args, **kwargs)

        def gap_spy(state, matrices, length):
            rows.append((len(state), length))
            return gap_walk(state, matrices, length)

        monkeypatch.setattr(intlinalg, "orbit_segments", orbit_spy)
        monkeypatch.setattr(flow_module, "walk_states", gap_spy)
        assert [v.hex() for v in flow.time_adjustment(requests)] == alone
        assert walked == [12, 2]   # the stable corners, and x0 and corners[1]
        assert rows[0] == (12, 1)  # the unstable gaps' step back
        assert rows[1] == (len(gaps), flow_module.SEGMENT)
        assert all(n <= len(gaps) for n, _ in rows[1:])


class TestStrongManifoldPoint:
    # the point of W^s((x, s)) over x + v is (x + v, s + time_adjustment(x, x + v))
    def test_constant_roof_keeps_fiber(self, cat_map):
        flow = SuspensionFlow(cat_map, const_roof(2))
        x, s = make_point(flow, [0.3, 0.55], 0.4)
        v = 0.03 * flow.stable_frame()[:, 0]
        y = np.asarray(x) + v
        qx, qs = make_point(flow, y, s + flow.time_adjustment([(x, y, "stable")])[0])
        assert np.allclose(qx, y % 1.0, atol=1e-14)
        assert qs == pytest.approx(0.4, abs=1e-14)

    def test_asymptotic_contraction_monotone(self, cat_flow, cat_map):
        split = mpspec.splitting(cat_map)
        x = [Fraction(3, 10), Fraction(11, 20)]
        w_fr = projected(split, 0.04 * cat_flow.stable_frame()[:, 0], "stable")
        y_fr = [a + b for a, b in zip(x, w_fr)]
        y = [float(v) for v in y_fr]
        _, qs = make_point(
            cat_flow, y, cat_flow.time_adjustment([([float(v) for v in x], y, "stable")])[0])
        dists = [
            distance_mp(
                cat_flow, evolve_mp(cat_flow, x, 0.0, t), evolve_mp(cat_flow, y_fr, qs, t)
            )
            for t in (10.0, 20.0, 30.0)
        ]
        assert dists[0] > dists[1] > dists[2]

    def test_weak_leaf_consistency(self, cat_flow, cat_map):
        # flowing then displacing along the image leaf agrees with
        # displacing first and flowing, once displacements are matched by
        # the base derivative
        def leaf_point(p, v):
            x, s = p
            y = np.asarray(x) + v
            [offset] = cat_flow.time_adjustment([(x, y, "stable")])
            return make_point(cat_flow, y, s + offset)

        x0 = np.array([0.123, 0.456])
        v = 0.01 * cat_flow.stable_frame()[:, 0]
        n = 3
        t = kahan_birkhoff(cat_flow.roof, cat_map, tuple(x0), n)
        x, s = make_point(cat_flow, x0, 0.0)
        mx, ms = leaf_point((x, s), v)
        lhs = make_point(cat_flow, mx, ms + t)
        xn = x0.copy()
        vn = v.copy()
        lin = cat_map.as_array()
        for _ in range(n):
            xn = base_apply(cat_flow, xn)
            vn = lin @ vn
        rhs = leaf_point(make_point(cat_flow, x, s + t), vn)
        assert distance_mp(cat_flow, lhs, rhs) <= 1e-8


class TestConstruction:
    def test_roof_dimension_checked(self, companion3):
        with pytest.raises(ValueError, match="roof dimension does not match the base map"):
            SuspensionFlow(companion3, const_roof(2))


class TestTranslation:
    # lengths d - 1 and d + 1 on a d = 3 base: zip would truncate either one
    @pytest.mark.parametrize("length", [2, 4])
    def test_length_checked(self, companion3, length):
        translation = (Fraction(1, 5),) + (0,) * (length - 1)
        with pytest.raises(ValueError, match=f"translation has {length} entries"):
            SuspensionFlow(companion3, const_roof(3), translation=translation)

    @pytest.mark.parametrize("length", [2, 4])
    def test_translate_flow_length_checked(self, companion3_flow, length):
        with pytest.raises(ValueError, match=f"translation has {length} entries"):
            pcf.translate_flow(companion3_flow, (Fraction(1, 7),) * length)


class TestExactOrbits:
    def test_rational_orbit_matches_float(self, companion3_flow):
        pt = rationalize([0.3, 0.6, 0.1])
        exact = companion3_flow.base_apply_exact(pt)
        floats = base_apply(companion3_flow, np.array([0.3, 0.6, 0.1]))
        assert np.allclose([float(v) for v in exact], floats, atol=1e-14)

    def test_inverse_round_trip(self, companion3_flow):
        pt = rationalize([0.31, 0.62, 0.13])
        back = companion3_flow.base_apply_inv_exact(
            companion3_flow.base_apply_exact(pt)
        )
        assert back == pt

    def test_birkhoff_exact_matches_module_sum(self, cat_flow, cat_map):
        # the float orbit drifts from the exact one at the Lyapunov rate, so
        # the horizon stays short of the double-precision shadowing limit
        x = (0.37, 0.91)
        direct = kahan_birkhoff(cat_flow.roof, cat_map, x, 10)
        assert cat_flow.birkhoff_exact(*exact_points([x]), 10)[0, -1] == pytest.approx(
            direct, abs=1e-11)


def _check_lockstep_sums(monkeypatch, segment, vector):
    # toy series in lockstep: term n of series k is g_n (n % 3 - 1), with
    # g_{n+1} = r_k g_n carried by walk_states, on an (m, 1, 1) stack of the
    # rates, as the next-term bound, so the loop's tail after the term is
    # g_{n+1} / (1 - r_k). The rates stop
    # the series after 18, 31, 104 and 223 terms, so in different rounds
    # and at different offsets inside a segment; the two series at rate
    # 0.5 stop together.
    # A vector series has the 2-column terms g_n (n % 3 - 1, n % 2 - 0.5),
    # shaped like the gradient halves' terms, and zero totals of that shape
    rates = np.array([0.5, 0.8, 0.3, 0.9, 0.5])
    starts = np.array([1.0, 2.0, 0.7, 1.5, 1.0])
    tol = 1e-9

    def pattern(n):
        return np.stack([n % 3 - 1.0, n % 2 - 0.5], axis=-1) if vector else n % 3 - 1.0

    def one_series(k):
        g, pairs = starts[k], []
        while not pairs or pairs[-1][1] >= tol:
            following = rates[k] * g
            pairs.append((g * pattern(np.float64(len(pairs))), following / (1.0 - rates[k])))
            g = following
        return pairs

    series = [one_series(k) for k in range(len(rates))]
    expected = [certified_sum(iter(pairs), tol) for pairs in series]
    counts = [len(pairs) for pairs in series]
    assert sorted(set(counts)) == [18, 31, 104, 223]

    def lockstep():
        gap = starts[:, None].copy()
        # one synthetic orbit whose rows are the series: point n of every
        # row is n, so a row's term pattern is that of term n alone
        length = flow_module.SEGMENT
        orbit = (np.broadcast_to(np.arange(n, n + length, dtype=float)[None, :, None],
                                 (len(rates), length, 1))
                 for n in range(0, 10**6, length))

        def segment_terms(active):
            points = next(orbit)[active]
            states, nexts = flow_module.walk_states(
                gap[active], (rates[active][:, None, None],), points.shape[1])
            gap[active] = nexts[:, -1]
            g = states[..., 0, None] if vector else states[..., 0]
            return g * pattern(points[..., 0]), nexts[..., 0]

        totals = np.zeros((len(rates), 2)) if vector else [0.0] * len(rates)
        return flow_module.certified_sums(segment_terms, tol, totals, rates)

    def check():
        totals, taken = lockstep()
        assert taken == counts
        assert isinstance(totals, list) and np.array_equal(totals, expected)

    monkeypatch.setattr(flow_module, "SEGMENT", segment)
    check()
    # the cap counts terms exactly: the longest series just fits, one
    # term less refuses the batch
    monkeypatch.setattr(flow_module, "MAX_TERMS", max(counts))
    check()
    monkeypatch.setattr(flow_module, "MAX_TERMS", max(counts) - 1)
    with pytest.raises(TruncationInsufficient, match=f"within {max(counts) - 1} terms"):
        lockstep()


class TestSegments:
    """Each batched series equals its one-point-at-a-time walk, bit for bit."""

    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_time_adjustment(self, segment_flow, per_point_series, monkeypatch, segment):
        quads = pcf.sample_quadrilaterals(segment_flow, 3, seed=17)

        def adjustments():
            return segment_flow.time_adjustment([
                (q.a, np.asarray(q.a) + disp, direction)
                for q in quads
                for disp, direction in ((q.s_disp, "stable"), (q.u_disp, "unstable"))
            ])

        expected = per_point_series(adjustments)
        monkeypatch.setattr(flow_module, "SEGMENT", segment)
        assert adjustments() == expected

    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_birkhoff_exact(self, segment_flow, per_point_series, monkeypatch, segment):
        x = (0.37, 0.91, 0.18)

        def sums():
            return [segment_flow.birkhoff_exact(*exact_points([x]), n, backward=backward)[0, -1]
                    for n in (1, 45, 77) for backward in (False, True)]

        expected = per_point_series(sums)
        monkeypatch.setattr(flow_module, "SEGMENT", segment)
        assert sums() == expected

    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_lockstep_sums_match_one_series_sums(self, monkeypatch, segment):
        # a scalar series, and a vector one shaped like the gradient halves'
        for vector in (False, True):
            with monkeypatch.context() as patch:
                _check_lockstep_sums(patch, segment, vector)

    # the cap counts terms, not segments: one term past the first segment
    # must raise. Here the leaf adjustments and t_series need 105-212 terms,
    # pcf_gradient, whose forward rate is lambda * xi_max ~ 0.87, 261, and
    # the return series of the kappa setup over 100
    @pytest.mark.parametrize(
        "series", ["stable", "unstable", "pcf_gradient", "t_series", "return_series"])
    def test_cap_across_segment_boundary(self, companion3_flow, kappa_setup, monkeypatch, series):
        flow = companion3_flow
        x = np.array([0.21, 0.47, 0.83])
        if series == "return_series":
            setup = kappa_setup

            def compute():
                [ledger] = perturb.return_series(
                    setup.chart, setup.bump, [np.array(setup.x_sequence[0])], setup.datum.y_r)
                return ledger.total
        elif series == "pcf_gradient":
            w = flow.stable_frame() @ np.full(1, 0.02)
            u = flow.unstable_frame() @ np.full(2, 0.02)

            def compute():
                return pcf.pcf_gradient(flow, [pcf.Quadrilateral(x, w, u)])
        elif series == "t_series":
            chart = perturb.SectionChart(flow)

            def compute():
                return chart.t_series(np.array([0.04, -0.03]), 0.21)
        else:
            frame = flow.stable_frame() if series == "stable" else flow.unstable_frame()
            y = x + frame @ np.full(frame.shape[1], 0.02)

            def compute():
                return flow.time_adjustment([(x, y, series)])
        assert np.all(np.isfinite(compute()))
        cap = flow_module.SEGMENT + 1
        monkeypatch.setattr(flow_module, "MAX_TERMS", cap)
        with pytest.raises(TruncationInsufficient, match=f"within {cap} terms"):
            compute()


# the denominators the kernel has to handle: uint64 paths at 2^53 and at
# 2^64 (where wrap-around is the reduction), limb paths just past it and at
# the 2^160 of mpspec; CRT paths at the x7 of the planted translations, at
# an odd den with no power of two, at a wide odd part and just under 2^63;
# Python-int paths at 3 2^62, past 2^63, and at 7 2^70
DENOMINATORS = [2**53, 2**64, 2**65, 7 * 2**53, 2**160,
                3, 1000003 * 2**20, 5 * 2**60, 3 * 2**62, 7 * 2**70]


def _starts_over(den):
    # off the unit cube; the first numerator is 1 mod twice the odd part of
    # den, so prime to den, and den is the exact common denominator
    step = 2 * (den // (den & -den))
    return st.tuples(*[st.integers(-2 * den, 2 * den)] * 3).map(
        lambda t: (Fraction(step * (t[0] // step) + 1, den), *(Fraction(v, den) for v in t[1:]))
    )


# float starts as the series take them, and starts over each of the
# denominators above, as the refined leaf vectors are
_starts = st.one_of(
    st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3).map(rationalize),
    st.sampled_from(DENOMINATORS).flatmap(_starts_over),
)


def _apply(entries, row, offset, den):
    # one exact affine step on a numerator row: (A n + offset) mod den
    return tuple((sum(a * v for a, v in zip(line, row)) + c) % den
                 for line, c in zip(entries, offset))


def _centred(v, den):
    # v - den * round(v / den), ties to even as Fraction.__round__ has them
    q, r = divmod(v, den)
    return v - den * (q + (2 * r > den or (2 * r == den and q & 1)))


@settings(max_examples=20, deadline=None)
@given(_starts, st.tuples(*[st.floats(-0.05, 0.05)] * 3))
def test_exact_orbit_matches_fraction_maps(companion3_flow, translated3, start, w):
    # every yielded float is the exact rational point correctly rounded, bit
    # for bit, at each segment length; w is a pcf_gradient backward gap:
    # L^-n w reduced into [-1/2, 1/2). The x7 of the translated flow puts
    # its orbits on the CRT path, or on Python ints past 2^63. The
    # reference is the affine map x -> L x + c mod 1 and its inverse
    # x -> L^-1 (x - c) mod 1 on Python-int numerator rows over the lcm D of
    # the start's and c's denominators; n / D is correctly rounded, as
    # float() of the Fraction n / D is
    for flow in (companion3_flow, translated3):
        inv = flow.inv_entries
        [row], over = numerators([start + flow.translation])
        shift = row[3:]
        ahead, behind = [row[:3]], [row[:3]]
        [gap], gap_den = numerators([tuple(Fraction(v) for v in w)])
        gaps = [gap]
        for _ in range(300):
            ahead.append(_apply(flow.base.entries, ahead[-1], shift, over))
            back = tuple(v - c for v, c in zip(behind[-1], shift))
            behind.append(_apply(inv, back, (0, 0, 0), over))
            gaps.append(tuple(_centred(sum(a * v for a, v in zip(line, gaps[-1])), gap_den)
                              for line in inv))
        for segment in SEGMENTS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(flow_module, "SEGMENT", segment)
                nums, den = numerators([start])
                fwd = chain.from_iterable(b[0] for b in flow.exact_orbit(nums, den))
                bwd = chain.from_iterable(
                    b[0] for b in flow.exact_orbit(nums, den, backward=True))
                walk = chain.from_iterable(b[0] for b in affine_orbit(
                    inv, (0, 0, 0), [gap], gap_den, centred=True))
                for n in range(300):
                    assert tuple(next(fwd)) == tuple(v / over for v in ahead[n])
                    assert tuple(next(walk)) == tuple(v / gap_den for v in gaps[n])
                    assert tuple(next(bwd)) == tuple(v / over for v in behind[n + 1])


def _numerators(block, den):
    # an orbit_segments block as one list of Python-int rows per start
    if den > 2**64 and not den & (den - 1):
        return limb_numerators(block, den)
    return [[tuple(int(v) for v in row) for row in rows] for rows in block]


def _assert_walks(blocks, entries, offset, starts, den, centred, points):
    # the first `points` rows of each lockstep walk against the one-step
    # reference: every row, the start too, is the orbit_numerators row
    # reduced (centred or not), and every float is the exact n / den rounded
    walks = [[] for _ in starts]
    floats = [[] for _ in starts]
    while len(walks[0]) < points:
        block = next(blocks)
        for walk, rows in zip(walks, _numerators(block, den)):
            walk.extend(rows)
        for out, rows in zip(floats, intlinalg.segment_floats(block, den).tolist()):
            out.extend(tuple(v.hex() for v in row) for row in rows)
    lo = den // 2 if centred else 0
    for start, walk, out in zip(starts, walks, floats):
        expected = [tuple((v + lo) % den - lo for v in row) for row in
                    islice(orbit_numerators(entries, offset, start, den), points)]
        assert walk[:points] == expected
        assert out[:points] == [tuple((v / den).hex() for v in row) for row in expected]


@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("den", DENOMINATORS)
@settings(max_examples=10, deadline=None)
@given(length=st.sampled_from(SEGMENTS), inverse=st.booleans(), data=st.data())
def test_orbit_segments_match_orbit_numerators(companion3, den, centred, length, inverse, data):
    # forward, backward and centred walks of a batch, numerators and floats,
    # against the one-step reference. The last start is within 2^-30 of the
    # fixed point 0, so its first floats fall below the windows of the
    # float conversions
    entries = companion3.inverse_entries() if inverse else companion3.entries
    starts = data.draw(st.lists(st.tuples(*[st.integers(-2 * den, 2 * den)] * 3),
                                min_size=1, max_size=3))
    starts.append(tuple((-1) ** i * (den >> (30 + i)) + i for i in range(3)))
    offset = data.draw(st.tuples(*[st.integers(0, den - 1)] * 3))
    blocks = intlinalg.orbit_segments(entries, offset, starts, den, length, centred)
    _assert_walks(blocks, entries, offset, starts, den, centred, 100)


@pytest.mark.parametrize("segment", SEGMENTS)
def test_backward_blocks_start_at_the_preimage(companion3_flow, translated3, monkeypatch, segment):
    # a backward orbit is walked from the exact preimage F^-1 x, so every
    # block, the first too, is SEGMENT points long, and the points are the
    # Fraction iterates F^-1 x, F^-2 x, ...; the centred gap walk of
    # pcf_gradient likewise from L^-1 w, reduced into [-1/2, 1/2)
    monkeypatch.setattr(flow_module, "SEGMENT", segment)
    for flow in (companion3_flow, translated3):
        points = [rationalize(x) for x in ((0.37, 0.91, 0.18), (0.05, 0.5, 0.77))]
        nums, den = numerators(points)
        blocks = list(islice(flow.exact_orbit(nums, den, backward=True), 3))
        assert [block.shape for block in blocks] == [(2, segment, 3)] * 3
        for row, point in zip(np.concatenate(blocks, axis=1), points):
            for got in row.tolist():
                point = flow.base_apply_inv_exact(point)
                assert got == [float(v) for v in point]
    inv, zero = companion3_flow.inv_entries, (0, 0, 0)
    [gap], den = intlinalg.dyadic([(0.013, -0.02, 0.007)])
    start = flow_module.affine_step(inv, zero, [gap], den, centred=True)
    blocks = list(islice(affine_orbit(inv, zero, *start, centred=True), 3))
    assert [block.shape for block in blocks] == [(1, segment, 3)] * 3
    for got in np.concatenate(blocks, axis=1)[0].tolist():
        gap = tuple(_centred(sum(a * v for a, v in zip(line, gap)), den) for line in inv)
        assert got == [v / den for v in gap]


@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("den", DENOMINATORS + [2**416])
def test_segment_numerators_are_the_walk(companion3, den, centred):
    # each branch's block read back as Python ints is the one-step walk
    entries = companion3.inverse_entries()
    starts = [(1, den // 3, den - 5), (-7, 2 * den, den // 7 + 1)]
    offset = (0, den // 5, 3)
    blocks = intlinalg.orbit_segments(entries, offset, starts, den, 7, centred)
    walks = [[] for _ in starts]
    for block in islice(blocks, 3):
        got = intlinalg.segment_numerators(block, den)
        assert got.dtype == object and got.shape == (len(starts), 7, 3)
        for walk, rows in zip(walks, got.tolist()):
            walk.extend(tuple(row) for row in rows)
    lo = den // 2 if centred else 0
    for start, walk in zip(starts, walks):
        assert walk == [tuple((v + lo) % den - lo for v in row)
                        for row in islice(orbit_numerators(entries, offset, start, den), 21)]


@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("k", [10, 30, 53, 59])
def test_crt_floats_match_exact_division(k, centred):
    # D = 7 * 2^k on the CRT branch. An element under D / 2^8 that 7 does
    # not divide has a quotient under 2^53 and a remainder, so it takes the
    # small path: rows mix zeros, such tiny elements, elements either side
    # of that edge and large ones, signed when centred; every float is n / D
    # correctly rounded
    den = 7 << k
    assert intlinalg._walk_branch(den, 3) == "crt"
    half = den // 2 if centred else 0   # elements in [-half, den - half)
    rng = random.Random(k + centred)
    edge = den >> 8
    nums = [0] * 11 + [edge - 1, edge, edge + 1]
    while len(nums) < 240:
        b = rng.randrange(1, edge.bit_length() + 1)
        nums.append(rng.getrandbits(b) | 1 << (b - 1))
        nums.append(rng.randrange(edge, den - half))
    if centred:
        nums = [-v if rng.random() < 0.5 else v for v in nums]
    rng.shuffle(nums)
    assert sum(0 < abs(v) < edge and v % 7 != 0 for v in nums) > 80
    block = np.array(nums, dtype=np.int64).reshape(2, 40, 3)
    out = intlinalg.segment_floats(block, den)
    assert [v.hex() for v in out.ravel().tolist()] == [(v / den).hex() for v in nums]


# the limb branch: just past 2^64, at the 2^160 of mpspec and at the 2^416
# that per-call corner bits reach on the quartic
LIMB_DENOMINATORS = [2**65, 2**160, 2**416]
LIMB_MATRICES = {
    "companion3": IntegerMatrix.companion([-1, 0, 1, 1]),
    "quartic": IntegerMatrix.companion([1, 4, -4, -1, 1]),
}


def _assert_limb_walks(matrix, inverse, den, starts, offset, length, centred, points):
    # numerators against the Python-int walk, floats against exact division
    entries = matrix.inverse_entries() if inverse else matrix.entries
    blocks = intlinalg.orbit_segments(entries, offset, starts, den, length, centred)
    first = next(blocks)
    assert first.dtype == np.int64 and first.shape[1:] == (len(starts), length, matrix.dim)
    floats = [[] for _ in starts]
    walks = [[] for _ in starts]
    for block in chain([first], blocks):
        for walk, rows in zip(walks, limb_numerators(block, den)):
            walk.extend(rows)
        for out, rows in zip(floats, intlinalg.segment_floats(block, den)):
            out.extend(tuple(row) for row in rows)
        if len(walks[0]) >= points:
            break
    for start, walk, out in zip(starts, walks, floats):
        expected = list(islice(chain.from_iterable(
            python_int_segments(entries, offset, start, den, length, centred)), points))
        assert walk[:points] == expected
        assert [tuple(v.hex() for v in row) for row in out[:points]] == [
            tuple((v / den).hex() for v in row) for row in expected]
    return floats


@pytest.mark.parametrize("name", sorted(LIMB_MATRICES))
@pytest.mark.parametrize("den", LIMB_DENOMINATORS)
@settings(max_examples=8, deadline=None)
@given(inverse=st.booleans(), centred=st.booleans(), length=st.sampled_from(SEGMENTS),
       data=st.data())
def test_limb_walk_matches_python_ints(name, den, inverse, centred, length, data):
    # negative and unreduced starts, any offset, forward and inverse, plain
    # and centred: every numerator and every float of the limb walk
    matrix = LIMB_MATRICES[name]
    d = matrix.dim
    starts = data.draw(st.lists(st.tuples(*[st.integers(-2 * den, 2 * den)] * d),
                                min_size=1, max_size=4))
    offset = data.draw(st.tuples(*[st.integers(0, den - 1)] * d))
    _assert_limb_walks(matrix, inverse, den, starts, offset, length, centred, 100)


@pytest.mark.parametrize("name", sorted(LIMB_MATRICES))
@pytest.mark.parametrize("den", LIMB_DENOMINATORS)
@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("inverse", [False, True])
def test_limb_walk_below_the_float_window(name, den, centred, inverse):
    # starts within 2^-30 of the fixed point 0 keep their coordinates under
    # 2^-10 for dozens of steps, the range the 63-bit float window leaves to
    # exact division; a zero start and starts one numerator unit from 0 too
    matrix = LIMB_MATRICES[name]
    d = matrix.dim
    starts = [
        tuple((-1) ** i * (den >> (30 + i)) + i for i in range(d)),
        (0,) * d,
        (1,) + (0,) * (d - 2) + (-1,),
    ]
    floats = _assert_limb_walks(matrix, inverse, den, starts, (0,) * d, flow_module.SEGMENT,
                                centred, 64)
    small = [v for out in floats for row in out for v in row if 0 < abs(v) < 2.0**-10]
    assert len(small) > 20


def test_limb_stack_refuses_a_width_that_could_wrap(companion3, monkeypatch):
    # 56-bit limbs would let a companion3 segment's limb sums pass 2^62
    for name, value in (("LIMB_BITS", 56), ("_LIMB_MASK", 2**56 - 1), ("_LIMB_HALF", 2**55)):
        monkeypatch.setattr(intlinalg, name, value)
    with pytest.raises(OverflowError, match="limb sums"):
        intlinalg._segment_stack.__wrapped__(companion3.entries, flow_module.SEGMENT)


def test_limb_stack_refuses_sums_past_float_exactness(companion3, monkeypatch):
    # 40-bit limbs keep the inverse companion3 stack's limb sums under the
    # 2^62 that int64 products allowed, but not under 2^53, past which
    # float64 sums of integers may round
    inverse = companion3.inverse_entries()
    exact = intlinalg._segment_stack(inverse, flow_module.SEGMENT)[0]
    for name, value in (("LIMB_BITS", 40), ("_LIMB_MASK", 2**40 - 1), ("_LIMB_HALF", 2**39)):
        monkeypatch.setattr(intlinalg, name, value)
    bound = max(sum(abs(limb) for v in row for limb in intlinalg._signed_limbs(v))
                for row in exact.tolist()) * intlinalg._LIMB_MASK
    assert 2**53 <= bound < 2**62
    with pytest.raises(OverflowError, match="limb sums"):
        intlinalg._segment_stack.__wrapped__(inverse, flow_module.SEGMENT)


@pytest.mark.parametrize("den", LIMB_DENOMINATORS)
def test_limb_split_matches_python_ints(den):
    # rows of single entries and of 3 and 4 entries, as the starts and the
    # offset of companion3 and the quartic, split by bytes and bit arrays,
    # against the Python-int limbs of
    # n 2^(K - k) mod 2^K: zero, negative, unreduced and extreme numerators
    w, bits = intlinalg.LIMB_BITS, den.bit_length() - 1
    count = -(-bits // w)
    total = count * w
    rng = random.Random(bits)
    values = [0, 1, -1, den - 1, den, -den, den // 2, -(den // 2) - 1, 3 * den + 5, -2 * den - 7]
    values += [rng.randrange(-2 * den, 2 * den) for _ in range(26)]
    for k in (1, 3, 4):
        rows = [tuple(values[i:i + k]) for i in range(0, len(values), k)]
        expected = [[[((v << (total - bits)) % (1 << total)) >> (w * t) & ((1 << w) - 1)
                      for v in row] for row in rows] for t in range(count)]
        got = intlinalg._limb_split(rows, bits, count)
        assert got.dtype == np.int64 and got.tolist() == expected


@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("smalls", [1, 150])
def test_limb_floats_match_exact_division(centred, smalls):
    # one block of zeros, elements on both sides of 2^-10, large elements
    # and `smalls` elements under 2^-10 (each negative with odds 1/2 when
    # centred): every float is n / 2^K correctly rounded
    w, count = intlinalg.LIMB_BITS, 8
    total = count * w
    rng = random.Random(smalls + centred)
    edge = 1 << (total - 10)   # n / 2^K = 2^-10
    nums = [0] * 30 + [edge - 1, edge]
    if centred:
        nums += [-edge, -edge - 1]
    while len(nums) < 240 - smalls:
        if centred:
            nums.append(rng.choice((-1, 1)) * rng.randrange(edge, 1 << (total - 1)))
        else:
            nums.append(rng.randrange(edge, 1 << total))
    for _ in range(smalls):
        b = rng.randrange(1, total - 10)
        v = rng.getrandbits(b) | 1 << (b - 1)
        nums.append(-v if centred and rng.random() < 0.5 else v)
    rng.shuffle(nums)
    # limbs below the top in [0, 2^W); the top one signed when centred
    limbs = [[v >> (w * t) & ((1 << w) - 1) for v in nums] for t in range(count - 1)]
    limbs.append([v >> (w * (count - 1)) for v in nums])
    block = np.array(limbs, dtype=np.int64).reshape(count, 2, 40, 3)
    assert sum(0 < abs(v) < edge for v in nums) == smalls + 1
    out = intlinalg._limb_floats(block)
    assert [v.hex() for v in out.ravel().tolist()] == [(v / 2**total).hex() for v in nums]


# the two neighbouring odd q on either side of the CRT bound of a d = 3
# walk, 6 (q - 1)^2 < 2^63
CRT_BOUND_ODD_PARTS = {"crt": 1239850263, "object": 1239850265}


@pytest.mark.parametrize("branch", sorted(CRT_BOUND_ODD_PARTS))
def test_crt_bound_picks_the_branch(companion3, branch):
    # q = den itself: the branch is the bound's alone, as den < 2^63 either
    # way, and both walks match the reference, plain and centred
    den = CRT_BOUND_ODD_PARTS[branch]
    assert (6 * (den - 1) ** 2 < 2**63) == (branch == "crt")
    assert intlinalg._walk_branch(den, 3) == branch
    entries = companion3.entries
    starts = [(den - 1, den // 2, 12345), (-7, 2 * den, den // 3)]
    offset = (1, den - 2, den // 5)
    for centred in (False, True):
        blocks = intlinalg.orbit_segments(entries, offset, starts, den, 7, centred)
        first = next(blocks)
        assert first.dtype == (np.int64 if branch == "crt" else object)
        _assert_walks(chain([first], blocks), entries, offset, starts, den, centred, 50)


def test_residue_stack_refuses_a_modulus_that_could_wrap(companion3):
    # residues under 2^40 summed over a stack row would pass 2^63
    with pytest.raises(OverflowError, match="residue sums"):
        intlinalg._residue_stack.__wrapped__(companion3.entries, flow_module.SEGMENT, 2**40 + 1)


def test_bundled_subbundle_walks_no_python_ints(monkeypatch, tmp_path):
    # the x7 translation of the bundled config walks on CRT residues: no
    # orbit block of its run is an object array of Python ints
    dtypes, dens = set(), set()
    walk = intlinalg.orbit_segments

    def checked(a, offset, starts, den, *args, **kwargs):
        dens.add(den)
        for block in walk(a, offset, starts, den, *args, **kwargs):
            dtypes.add(block.dtype)
            yield block

    monkeypatch.setattr(intlinalg, "orbit_segments", checked)
    config = experiments.load_config(CONFIGS / "subbundle_companion3.json")
    experiments.run_experiment(config, tmp_path)
    assert any(den % 7 == 0 for den in dens)
    assert dtypes and np.dtype(object) not in dtypes


def test_centred_walk_at_two_to_the_64(companion3):
    # D = 2^64: the centred value is the int64 view of the wrapped uint64
    # numerators, as D/2 does not fit an int64
    den = 2**64
    inv = companion3.inverse_entries()
    start = (den // 2 - 1, -(den // 2), 12345)
    blocks = intlinalg.orbit_segments(inv, (0, 0, 0), [start], den, 7, centred=True)
    first = next(blocks)
    assert first.dtype == np.int64
    expected = [tuple((v + den // 2) % den - den // 2 for v in row)
                for row in islice(orbit_numerators(inv, (0, 0, 0), start, den), 70)]
    rows = chain(first[0], chain.from_iterable(b[0] for b in blocks))
    got = [tuple(int(v) for v in row) for row in islice(rows, 70)]
    assert got == expected
    assert all(-den // 2 <= v < den // 2 for nums in got for v in nums)
    points = chain.from_iterable(b[0] for b in affine_orbit(
        inv, (0, 0, 0), [start], den, centred=True))
    assert [tuple(p) for p in islice(points, 70)] == [
        tuple(v / den for v in nums) for nums in expected
    ]


@pytest.mark.parametrize("backward", [False, True])
def test_birkhoff_exact_ends_mid_segment(segment_flow, backward):
    # 45 terms: the second segment is cut after 13 of its points
    n = 45
    assert n % flow_module.SEGMENT
    point = rationalize((0.37, 0.91, 0.18))
    expected = 0.0
    for _ in range(n):
        if backward:
            point = segment_flow.base_apply_inv_exact(point)
        expected += segment_flow.roof.poly.evaluate([float(v) for v in point])
        if not backward:
            point = segment_flow.base_apply_exact(point)
    assert np.array_equal(segment_flow.birkhoff_exact(
        *exact_points([(0.37, 0.91, 0.18)]), n, backward=backward)[:, -1], [expected])


@pytest.mark.parametrize("translated", [False, True])
@pytest.mark.parametrize("backward", [False, True])
def test_birkhoff_exact_batch_matches_single_starts(companion3_flow, translated3,
                                                    translated, backward):
    # float starts, which walk on uint64 alone, and refined 2^160 corners
    # share one limb walk in a batch (a Python-int walk on the x7 flow);
    # each sum equals its start walked alone, in either order
    flow = translated3 if translated else companion3_flow
    w = projected(mpspec.splitting(flow.base), 0.02 * flow.stable_frame()[:, 0], "stable")
    alpha = rationalize((0.37, 0.91, 0.18))
    starts = [
        alpha, rationalize((-0.3, 1.25, 1e-5)),
        tuple(a + b for a, b in zip(alpha, w)), tuple(a - b for a, b in zip(alpha, w)),
    ]
    n = 77
    singles = [flow.birkhoff_exact(*numerators([x]), n, backward=backward)[0] for x in starts]
    nums, den = numerators(starts)
    assert np.array_equal(flow.birkhoff_exact(nums, den, n, backward=backward), singles)
    assert np.array_equal(flow.birkhoff_exact(nums[::-1], den, n, backward=backward),
                          singles[::-1])


@pytest.mark.parametrize("backward", [False, True])
def test_birkhoff_exact_partial_sums(companion3_flow, backward):
    # column j is the (j + 1)-term sum, whatever horizon the walk runs to,
    # and a walk of no terms is an empty row per start
    nums, den = numerators([rationalize((0.37, 0.91, 0.18)), rationalize((0.5, 0.25, 0.75))])
    sums = companion3_flow.birkhoff_exact(nums, den, 77, backward=backward)
    assert sums.shape == (2, 77)
    for n in (1, 13, 45):
        assert np.array_equal(sums[:, :n], companion3_flow.birkhoff_exact(nums, den, n, backward))
    assert companion3_flow.birkhoff_exact(nums, den, 0, backward).shape == (2, 0)


def test_wrap_unit():
    assert np.allclose(wrap_unit(np.array([0.75, -0.75])), [-0.25, 0.25])
