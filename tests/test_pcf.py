from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import const_roof, cos_roof
from oracles import (
    distance_mp, evolve_mp, independent_pairs_reference, make_point, patch_newton_reference,
    temporal_distance_geometric_reference,
)

from anosovlab import flow as flow_module
from anosovlab import experiments, intlinalg, pcf, perturb
from anosovlab.errors import (
    DegenerateGradients, NoIntersection, NotCodimensionOne, OffLeaf, TruncationInsufficient,
)
from anosovlab.flow import CHART_RADIUS, SuspensionFlow, wrap_unit
from anosovlab.roof import RoofFunction, TrigPolynomial
from anosovlab.spectral import IntegerMatrix, enumerate_catalog

SEED = 20260808
BASE_POINT = (0.37, 0.61, 0.22)


def small_amp_flow(companion3, amplitude):
    return SuspensionFlow(
        companion3,
        RoofFunction(
            TrigPolynomial.constant(1.0, 3)
            + TrigPolynomial.cosine(amplitude, (1, 0, 0), 3)
        ),
    )


class TestTemporalDistanceSeries:
    def test_constant_roof_vanishes(self, companion3_const_flow):
        quads = pcf.sample_quadrilaterals(companion3_const_flow, 25, seed=SEED)
        worst = max(
            abs(rho) for rho in pcf.temporal_distance_series(companion3_const_flow, quads)
        )
        assert worst <= 1e-10

    def test_zero_unstable_displacement(self, companion3_flow):
        a = (0.3, 0.4, 0.5)
        w = 0.02 * companion3_flow.stable_frame()[:, 0]
        quad = pcf.Quadrilateral.build(companion3_flow, a, w, np.zeros(3))
        assert pcf.temporal_distance_series(companion3_flow, [quad]) == [0.0]

    def test_zero_stable_displacement(self, companion3_flow):
        a = (0.3, 0.4, 0.5)
        u = companion3_flow.unstable_frame() @ np.array([0.015, -0.01])
        quad = pcf.Quadrilateral.build(companion3_flow, a, np.zeros(3), u)
        assert pcf.temporal_distance_series(companion3_flow, [quad]) == [0.0]

    def test_antisymmetry_under_corner_exchange(self, companion3_flow):
        # moving the corner to b and negating the stable displacement
        # transports the quadrilateral and flips the sign
        rng = np.random.default_rng(5)
        flow = companion3_flow
        for _ in range(10):
            a = rng.random(3)
            w = flow.stable_frame() @ (rng.uniform(-1, 1, 1) * 0.02)
            u = flow.unstable_frame() @ (rng.uniform(-1, 1, 2) * 0.015)
            quad = pcf.Quadrilateral.build(flow, a, w, u)
            b = (a + w) % 1.0
            mirrored = pcf.Quadrilateral.build(flow, b, -w, u)
            value, flipped = pcf.temporal_distance_series(flow, [quad, mirrored])
            assert flipped == pytest.approx(-value, abs=1e-8)


class TestQuadrilateral:
    def test_rejects_off_subspace_displacements(self, companion3_flow):
        a = (0.1, 0.2, 0.3)
        with pytest.raises(OffLeaf):
            pcf.Quadrilateral.build(
                companion3_flow, a, np.array([0.01, 0.0, 0.0]), np.zeros(3)
            )

    def test_rejects_oversized(self, companion3_flow):
        a = (0.1, 0.2, 0.3)
        with pytest.raises(NoIntersection):
            pcf.Quadrilateral.build(
                companion3_flow, a, 0.4 * companion3_flow.stable_frame()[:, 0],
                np.zeros(3),
            )

    def test_chart_boundary_is_one_bound(self, companion3_flow):
        # build and the geometric route make one chart test: an unstable
        # displacement 5e-13 past CHART_RADIUS is refused by both, and one
        # just inside it runs both routes to agreement
        a = (0.1, 0.2, 0.3)
        w = 0.01 * companion3_flow.stable_frame()[:, 0]
        unit = companion3_flow.unstable_frame()[:, 0]
        unit = unit / np.linalg.norm(unit)
        over = (CHART_RADIUS + 5e-13) * unit
        with pytest.raises(NoIntersection, match="exceeds chart radius") as refusal:
            pcf.Quadrilateral.build(companion3_flow, a, w, over)
        # the message holds the unrounded norm, not one rounded onto the radius
        assert repr(float(np.linalg.norm(over))) in str(refusal.value)
        assert repr(float(np.linalg.norm(over))) != repr(CHART_RADIUS)
        with pytest.raises(NoIntersection):
            pcf.temporal_distance_geometric(
                companion3_flow, [pcf.Quadrilateral(a=a, s_disp=tuple(w), u_disp=tuple(over))])
        inside = pcf.Quadrilateral.build(companion3_flow, a, w, (CHART_RADIUS - 5e-13) * unit)
        [series] = pcf.temporal_distance_series(companion3_flow, [inside])
        [geometric] = pcf.temporal_distance_geometric(companion3_flow, [inside])
        assert series != 0.0 and abs(series - geometric) <= 1e-6

    def test_one_scale_sets_both_draws(self, companion3_flow, monkeypatch):
        # DISPLACEMENT_SCALE sizes the stable and the unstable draw alike:
        # halving it halves both displacements and moves no base corner
        full = pcf.sample_quadrilaterals(companion3_flow, 4, seed=7)
        monkeypatch.setattr(pcf, "DISPLACEMENT_SCALE", pcf.DISPLACEMENT_SCALE / 2)
        half = pcf.sample_quadrilaterals(companion3_flow, 4, seed=7)
        for f, h in zip(full, half):
            assert h.a == f.a and h.fiber == f.fiber
            assert np.array(h.s_disp) == pytest.approx(0.5 * np.array(f.s_disp), rel=1e-15)
            assert np.array(h.u_disp) == pytest.approx(0.5 * np.array(f.u_disp), rel=1e-15)
            assert np.linalg.norm(f.s_disp) > 0.0 and np.linalg.norm(f.u_disp) > 0.0


def _stream_draws(rng, dim=3, frames=(1, 2)):
    """Draws in the order `sample_quadrilaterals` makes them, as exact bytes:
    a base point, a scalar fiber height, then each frame's coefficients."""
    draws = []
    for _ in range(5):
        base = rng.random(dim)
        draws += [base.tobytes(), float.hex(rng.uniform(0.0, 1.0 + base.sum()))]
        draws += [rng.uniform(-1.0, 1.0, k).tobytes() for k in frames]
    return draws


class TestSeededStream:
    """`pcf.SeededStream(seed)` is numpy's `default_rng(seed)`, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    @example(0)
    @example(2**32 - 1)
    @example(2**32)
    @example(2**63)
    @example(2**64 - 1)
    @example(2**64 + 12345)
    @example(3**200)
    def test_equals_numpy_default_rng(self, seed):
        assert _stream_draws(pcf.SeededStream(seed)) == _stream_draws(np.random.default_rng(seed))

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError),
                                             (1.0, TypeError), ("3", TypeError)])
    def test_refuses_as_numpy(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            pcf.SeededStream(seed)

    def test_refuses_none(self):
        # numpy draws fresh entropy for None; a report must not
        with pytest.raises(TypeError):
            pcf.SeededStream(None)


class TestTemporalDistanceGeometric:
    def test_constant_roof(self, companion3_const_flow):
        quads = pcf.sample_quadrilaterals(companion3_const_flow, 5, seed=3)
        for value in pcf.temporal_distance_geometric(companion3_const_flow, quads):
            assert abs(value) <= 1e-8

    def test_dual_oracle_agreement(self, companion3_flow):
        quads = pcf.sample_quadrilaterals(companion3_flow, 25, seed=SEED)
        worst = max(abs(s - g) for s, g in zip(
            pcf.temporal_distance_series(companion3_flow, quads),
            pcf.temporal_distance_geometric(companion3_flow, quads)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("name", ["companion3", "quartic"])
    def test_batch_matches_reference(self, companion3_flow, quartic_real, name):
        # each value equals its quadrilateral's walks run alone, bit for bit,
        # and depends neither on the rest of the batch nor on its order
        if name == "companion3":
            flow = companion3_flow
        else:
            flow = SuspensionFlow(quartic_real, cos_roof(4, amplitude=0.01))
        quads = pcf.sample_quadrilaterals(flow, 6, seed=31)
        expected = [temporal_distance_geometric_reference(flow, q).hex() for q in quads]
        assert [v.hex() for v in pcf.temporal_distance_geometric(flow, quads)] == expected
        reverse = pcf.temporal_distance_geometric(flow, quads[::-1])
        assert [v.hex() for v in reverse] == expected[::-1]
        assert [v.hex() for v in pcf.temporal_distance_geometric(flow, quads[2:4])] == expected[2:4]
        assert pcf.temporal_distance_geometric(flow, []) == []

    @pytest.mark.parametrize("batch", [5, 32])
    def test_walks_in_batch_orbits_chunks(self, companion3_flow, monkeypatch, batch):
        # 4 walks a quadrilateral and direction, so ceil(4 n / BATCH_ORBITS)
        # birkhoff_exact calls a direction; a chunk that splits
        # quadrilaterals changes no bit
        flow = companion3_flow
        quads = pcf.sample_quadrilaterals(flow, 9, seed=31)
        expected = [v.hex() for v in pcf.temporal_distance_geometric(flow, quads)]
        walk = SuspensionFlow.birkhoff_exact
        calls = []

        def counted(self, starts, den, n, backward=False):
            calls.append((backward, len(starts)))
            return walk(self, starts, den, n, backward)

        monkeypatch.setattr(SuspensionFlow, "birkhoff_exact", counted)
        monkeypatch.setattr(pcf, "BATCH_ORBITS", batch)
        assert [v.hex() for v in pcf.temporal_distance_geometric(flow, quads)] == expected
        sizes = [min(batch, 36 - lo) for lo in range(0, 36, batch)]
        assert calls == [(False, m) for m in sizes] + [(True, m) for m in sizes]

    def test_oversized_displacement_raises(self, companion3_flow):
        a = (0.3, 0.4, 0.5)
        big = 0.4 * companion3_flow.stable_frame()[:, 0]
        # the constructor skips build's chart check, so the geometric route
        # is the one to refuse
        quad = pcf.Quadrilateral(a=a, s_disp=tuple(big), u_disp=(0.0, 0.0, 0.0))
        with pytest.raises(NoIntersection):
            pcf.temporal_distance_geometric(companion3_flow, [quad])
        # one such quadrilateral refuses the whole batch
        good = pcf.sample_quadrilaterals(companion3_flow, 3, seed=5)
        with pytest.raises(NoIntersection):
            pcf.temporal_distance_geometric(companion3_flow, [*good[:2], quad, good[2]])

    def test_two_dimensional_stable_bundle_refused(self):
        # companion(1, -3, -3, 3, 1) has two contracting eigenvalues: no
        # flow is built, so neither route can run on it
        with pytest.raises(NotCodimensionOne, match="dim E\\^s = 2"):
            SuspensionFlow(IntegerMatrix.companion([1, -3, -3, 3, 1]), cos_roof(4))

    def test_horizon_cap_refuses(self, companion3_flow, monkeypatch):
        flow = companion3_flow
        forward, backward = flow.spectral.lam, 1.0 / flow.spectral.xi_min
        lip = flow.roof.poly.lipschitz_bound()
        assert flow_module.tail_horizon(lip, forward, 1e-6, 1.0) == 8
        for rate in (forward, backward):
            with pytest.raises(TruncationInsufficient, match="horizon"):
                flow_module.tail_horizon(lip, rate, 0.02, 1e-300)
        # the backward horizon here is about 145 steps: under a lower cap the
        # route must refuse instead of returning an uncertified tail
        quad = pcf.sample_quadrilaterals(flow, 1, seed=1)[0]
        monkeypatch.setattr(flow_module, "MAX_HORIZON", 100)
        with pytest.raises(TruncationInsufficient):
            pcf.temporal_distance_geometric(flow, [quad])

    def test_one_long_horizon_refuses_the_batch(self, companion3_flow, monkeypatch):
        # a quadrilateral with a tiny unstable displacement keeps its
        # backward horizon under the cap; one with the usual 0.02 scale
        # passes it, and the batch is refused before any walk
        flow = companion3_flow
        quads = pcf.sample_quadrilaterals(flow, 4, seed=1)
        short = [pcf.Quadrilateral(a=q.a, s_disp=q.s_disp, u_disp=tuple(1e-3 * np.asarray(q.u_disp)))
                 for q in quads]
        monkeypatch.setattr(flow_module, "MAX_HORIZON", 120)
        assert len(pcf.temporal_distance_geometric(flow, short)) == 4
        calls = []
        monkeypatch.setattr(SuspensionFlow, "birkhoff_exact",
                            lambda self, *args, **kwargs: calls.append(args))
        with pytest.raises(TruncationInsufficient, match="horizon"):
            pcf.temporal_distance_geometric(flow, [*short[:3], quads[3]])
        assert calls == []


# phi for the coboundary invariance: r and r + phi o A - phi have the same
# temporal distance, since phi telescopes around every su-cycle
COBOUNDARY_PHIS = {
    "cos_x2": TrigPolynomial.cosine(0.01, (0, 1, 0), 3),
    "sin_x1_minus_x3": TrigPolynomial.sine(0.01, (1, 0, -1), 3),
    "cos_x2_sin_x1_plus_x2": TrigPolynomial.cosine(0.01, (0, 1, 0), 3)
    + TrigPolynomial.sine(0.005, (1, 1, 0), 3),
}


class TestCoboundaryInvariance:
    """The six d=3 catalog bases at coeff_bound 1 under r = 1 + 0.1 cos(2 pi x1)."""

    @pytest.fixture(scope="class")
    def routes(self):
        # per base: the flow under r, 10 seeded quadrilaterals, both routes' values
        out = {}
        for entry in enumerate_catalog(3, 1):
            flow = SuspensionFlow(entry.matrix, cos_roof(3))
            quads = pcf.sample_quadrilaterals(flow, 10, seed=SEED)
            out[entry.coeffs] = (flow, quads, pcf.temporal_distance_series(flow, quads),
                                 pcf.temporal_distance_geometric(flow, quads))
        return out

    @pytest.mark.parametrize("phi", list(COBOUNDARY_PHIS))
    def test_coboundary_leaves_temporal_distance(self, routes, phi):
        poly = COBOUNDARY_PHIS[phi]
        assert len(routes) == 6
        for flow, quads, series, geometric in routes.values():
            # the distances are of order 1e-3, so the identity is not met by zeros
            assert max(abs(v) for v in series) > 1e-4
            shifted = SuspensionFlow(flow.base, RoofFunction(
                flow.roof.poly + poly.compose_matrix(flow.base) - poly))
            series2 = pcf.temporal_distance_series(shifted, quads)
            geometric2 = pcf.temporal_distance_geometric(shifted, quads)
            assert max(abs(a - b) for a, b in zip(series, series2)) <= 1e-13
            assert max(abs(a - b) for a, b in zip(geometric, geometric2)) <= 1e-9


class TestPcfGradient:
    def test_constant_roof_zero(self, companion3_const_flow):
        flow = companion3_const_flow
        a = (0.1, 0.2, 0.3)
        g = pcf.pcf_gradient(flow, [pcf.Quadrilateral(
            a, 0.01 * flow.stable_frame()[:, 0], flow.unstable_frame() @ [0.01, 0.0])])
        assert g.shape == (1, 2) and np.allclose(g, 0.0)

    def test_matches_finite_differences(self, companion3):
        flow = small_amp_flow(companion3, 0.02)
        rng = np.random.default_rng(11)
        u_frame = flow.unstable_frame()
        s_frame = flow.stable_frame()
        h = 4e-6

        def rho(a, w, c):
            quad = pcf.Quadrilateral.build(flow, a, w, u_frame @ c)
            return pcf.temporal_distance_series(flow, [quad])[0]

        worst = 0.0
        for _ in range(50):
            a = rng.random(3)
            w = s_frame @ (rng.uniform(-1, 1, 1) * 0.006)
            c = rng.uniform(-1, 1, 2) * 0.01
            [grad] = pcf.pcf_gradient(flow, [pcf.Quadrilateral(a, w, u_frame @ c)])
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (rho(a, w, c + e) - rho(a, w, c - e)) / (2 * h)
                worst = max(worst, abs(fd - grad[j]))
        assert worst <= 1e-7

    def test_nonzero_gradient_found_quickly(self, companion3_flow):
        rng = np.random.default_rng(2)
        flow = companion3_flow
        for draw in range(20):
            a = rng.random(3)
            w = flow.stable_frame() @ (rng.uniform(-1, 1, 1) * 0.02)
            u = flow.unstable_frame() @ (rng.uniform(-1, 1, 2) * 0.015)
            if np.linalg.norm(pcf.pcf_gradient(flow, [pcf.Quadrilateral(a, w, u)])) > 1e-4:
                return
        pytest.fail("no nonzero gradient within 20 draws")

    @pytest.mark.parametrize("segment", [1, 7, flow_module.SEGMENT])
    def test_segments_bit_identical(self, segment_flow, per_point_series, monkeypatch, segment):
        # both sides of the two-sided sum, batched, against the
        # one-point-at-a-time walk
        quads = pcf.sample_quadrilaterals(segment_flow, 3, seed=23)

        def gradients():
            return pcf.pcf_gradient(segment_flow, quads).tolist()

        # each quadrilateral alone, against the batch
        expected = per_point_series(lambda: [
            pcf.pcf_gradient(segment_flow, [q])[0].tolist()
            for q in quads])
        monkeypatch.setattr(flow_module, "SEGMENT", segment)
        assert gradients() == expected

    def test_cat_map_rejected(self, cat_flow):
        # lambda * xi_max = 1 on the cat map: pcf_gradient and the section
        # chart's stable-graph gradient both meet stable_gradient's refusal
        refusal = r"bunching ratio lambda\*xi_max < 0\.98, got 1\.000"
        a = (0.3, 0.5)
        with pytest.raises(ValueError, match=refusal):
            pcf.pcf_gradient(cat_flow, [pcf.Quadrilateral(
                a, 0.01 * cat_flow.stable_frame()[:, 0], 0.01 * cat_flow.unstable_frame()[:, 0])])
        with pytest.raises(ValueError, match=refusal):
            perturb.SectionChart(cat_flow).t_gradient_at_zero(0.1)

    @pytest.mark.parametrize("tilted", ["stable", "unstable"])
    def test_off_leaf_displacement_refused(self, companion3_flow, tilted):
        # a 1e-10 tilt into the transverse subspace, before any series runs
        flow = companion3_flow
        w = 0.01 * flow.stable_frame()[:, 0]
        u = flow.unstable_frame() @ [0.01, 0.0]
        if tilted == "stable":
            w = w + 1e-10 * flow.unstable_frame()[:, 0]
        else:
            u = u + 1e-10 * flow.stable_frame()[:, 0]
        with pytest.raises(OffLeaf, match=f"{tilted} displacement has transverse part"):
            pcf.pcf_gradient(flow, [pcf.Quadrilateral((0.1, 0.2, 0.3), w, u)])

    def test_cat_map_constant_roof_zero(self, cat_map):
        # the temporal distance of a constant roof vanishes identically, so
        # its gradient is exactly zero even where the series would diverge
        flow = SuspensionFlow(cat_map, const_roof(2))
        a = (0.3, 0.5)
        g = pcf.pcf_gradient(flow, [pcf.Quadrilateral(
            a, 0.01 * flow.stable_frame()[:, 0], 0.01 * flow.unstable_frame()[:, 0])])
        assert g.tolist() == [[0.0]]


@pytest.fixture
def gradient_batches(monkeypatch):
    """The number of quadrilaterals of each `pcf.pcf_gradient` call, in turn."""
    sizes = []
    batch = pcf.pcf_gradient

    def recording(flow, quads):
        quads = list(quads)
        sizes.append(len(quads))
        return batch(flow, quads)

    monkeypatch.setattr(pcf, "pcf_gradient", recording)
    return sizes


def _hexed(rows):
    return [[v.hex() for v in row] for row in np.asarray(rows).tolist()]


class TestBatchedGradients:
    """A batch of quadrilaterals gives each the gradient it has alone, bit for bit."""

    @pytest.mark.parametrize("name", ["companion3", "translated3"])
    def test_batch_matches_each_alone(self, companion3_flow, translated3, name):
        # translated3 walks its x7 orbits on the CRT branch
        flow = translated3 if name == "translated3" else companion3_flow
        quads = pcf.sample_quadrilaterals(flow, 5, seed=31)
        alone = [_hexed(pcf.pcf_gradient(flow, [q]))[0] for q in quads]
        assert _hexed(pcf.pcf_gradient(flow, quads)) == alone
        assert _hexed(pcf.pcf_gradient(flow, quads[::-1])) == alone[::-1]
        assert pcf.pcf_gradient(flow, []).shape == (0, 2)

    def test_one_walk_per_half(self, companion3_flow, monkeypatch):
        # the forward starts, the backward gaps and the backward starts:
        # one lockstep walk each for the whole batch
        flow = companion3_flow
        quads = pcf.sample_quadrilaterals(flow, 4, seed=7)
        calls = []
        walk = intlinalg.orbit_segments

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return walk(*args, **kwargs)

        monkeypatch.setattr(intlinalg, "orbit_segments", counting)
        pcf.pcf_gradient(flow, quads)
        assert calls == [4, 4, 4]

    def test_weights_walked_once_per_flow(self, companion3, monkeypatch):
        # the gradient weights and their bounds depend only on the flow: a
        # second call on it walks none and is bit-identical to the first,
        # and weights walked at another segment length give the same bits
        flow = SuspensionFlow(companion3, cos_roof(3))
        quads = pcf.sample_quadrilaterals(flow, 3, seed=37)
        first = _hexed(pcf.pcf_gradient(flow, quads))
        states = []
        walk = flow_module.walk_states

        def recording(state, matrices, length):
            states.append(state.ndim)   # 2 for stacked gaps, 3 for weights
            return walk(state, matrices, length)

        monkeypatch.setattr(flow_module, "walk_states", recording)
        assert _hexed(pcf.pcf_gradient(flow, quads)) == first
        assert states and set(states) == {2}
        other = SuspensionFlow(companion3, cos_roof(3))
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "SEGMENT", 7)
            pcf.pcf_gradient(other, quads[:1])
        states.clear()
        assert _hexed(pcf.pcf_gradient(other, quads)) == first
        assert 3 in states   # its longer series extend the walk

    def test_matching_kernel_makes_one_call(self, companion3_flow, gradient_batches):
        flow = companion3_flow
        pairs = pcf.find_independent_pairs(flow, BASE_POINT, count=2, seed=5)
        alone = [pcf.matching_kernel_dimension(flow, BASE_POINT, [pair]).gradients[0]
                 for pair in pairs]
        gradient_batches.clear()
        report = pcf.matching_kernel_dimension(flow, BASE_POINT, pairs)
        assert gradient_batches == [2]
        assert _hexed(report.gradients) == _hexed(alone)


class TestMatchingKernel:
    def test_constant_roof_full_kernel(self, companion3_const_flow):
        flow = companion3_const_flow
        bp = BASE_POINT
        report = pcf.matching_kernel_dimension(
            flow, bp, [(bp, tuple(0.01 * flow.stable_frame()[:, 0]))]
        )
        assert report.kernel_dim == flow.dim_unstable == 2
        assert report.kernel_basis.shape == (3, 2)

    def test_single_nonzero_gradient(self, companion3_flow):
        flow = companion3_flow
        bp = BASE_POINT
        pairs = pcf.find_independent_pairs(flow, bp, count=1, seed=5)
        report = pcf.matching_kernel_dimension(flow, bp, pairs)
        assert report.kernel_dim == flow.dim_unstable - 1 == 1
        grad = np.array(report.gradients[0])
        kern = np.linalg.lstsq(flow.unstable_frame(), report.kernel_basis, rcond=None)[0]
        assert np.max(np.abs(grad @ kern)) <= 1e-9

    def test_two_independent_gradients_kill_kernel(self, companion3_flow):
        flow = companion3_flow
        bp = BASE_POINT
        pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=5)
        report = pcf.matching_kernel_dimension(flow, bp, pairs)
        assert report.kernel_dim == 0

    def test_kernel_dim_invariant_under_stable_transport(self, companion3_flow):
        flow = companion3_flow
        bp = BASE_POINT
        pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=5)
        before = pcf.matching_kernel_dimension(flow, bp, pairs).kernel_dim
        shift = 0.004 * flow.stable_frame()[:, 0]
        bp2 = (np.asarray(bp) + shift) % 1.0
        pairs2 = [((np.asarray(a) + shift) % 1.0, w) for a, w in pairs]
        after = pcf.matching_kernel_dimension(flow, bp2, pairs2).kernel_dim
        assert before == after == 0

    def test_base_point_off_a_pair_leaf_refused(self, companion3_const_flow):
        # a stable offset of 1e-10 from the pair's corner, a hundred times
        # LEAF_TOL, refused by the kernel and by the quadrilaterals it reads
        flow = companion3_const_flow
        bp = (np.asarray(BASE_POINT) + 1e-10 * flow.stable_frame()[:, 0]) % 1.0
        pairs = [(BASE_POINT, tuple(0.01 * flow.stable_frame()[:, 0]))]
        with pytest.raises(OffLeaf, match="unstable displacement has transverse part"):
            pcf.matching_kernel_dimension(flow, bp, pairs)
        with pytest.raises(OffLeaf, match="unstable displacement has transverse part"):
            pcf.pair_quads(flow, pairs, [BASE_POINT, bp])

    def test_budget_exhaustion(self, companion3_const_flow, monkeypatch):
        flow = companion3_const_flow
        bp = BASE_POINT
        monkeypatch.setattr(pcf, "PAIR_BUDGET", 5)
        with pytest.raises(DegenerateGradients):
            pcf.find_independent_pairs(flow, bp, count=1, seed=0)


def _hexed_quad(quad):
    return tuple(tuple(float(v).hex() for v in part) for part in (quad.a, quad.s_disp, quad.u_disp))


class TestPairQuads:
    """The quadrilateral of each pair at each point, the one input the kernel and chart read."""

    def test_point_major_and_each_alone(self, companion3_flow):
        flow = companion3_flow
        pairs = pcf.find_independent_pairs(flow, BASE_POINT, count=2, seed=5)
        u_frame = flow.unstable_frame()
        points = [(np.asarray(BASE_POINT) + u_frame @ c) % 1.0
                  for c in ([0.0, 0.0], [0.003, -0.002], [-0.001, 0.004])]
        quads = pcf.pair_quads(flow, pairs, points)
        alone = [
            pcf.Quadrilateral(a=a, s_disp=s_disp, u_disp=tuple(flow.leaf_part(
                wrap_unit(point - np.asarray(a)), "unstable")))
            for point in points for a, s_disp in pairs
        ]
        assert [_hexed_quad(q) for q in quads] == [_hexed_quad(q) for q in alone]
        # the offsets differ point to point, so the order is seen
        assert len({q.u_disp for q in quads}) == len(quads) == 6

    def test_matching_kernel_reads_pair_quads(self, companion3_flow):
        flow = companion3_flow
        pairs = pcf.find_independent_pairs(flow, BASE_POINT, count=2, seed=5)
        report = pcf.matching_kernel_dimension(flow, BASE_POINT, pairs)
        expected = pcf.pcf_gradient(flow, pcf.pair_quads(flow, pairs, [BASE_POINT]))
        assert _hexed(report.gradients) == _hexed(expected)


class TestPairSearch:
    """The pair search in rounds of draws against the one-draw-at-a-time loop."""

    # quartic_real has dim E^u = 3, so a round of 3 draws can reject a draw
    # in its middle; at this seed the draws accepted are 0, 3 and 9, so the
    # rounds are draws 0-2 (1 rejected mid-round), 3-4, then one at a time
    SEED = 5
    POINT = (0.31, 0.47, 0.59, 0.13)

    def test_rounds_match_one_draw_at_a_time(self, quartic_real, gradient_batches):
        flow = SuspensionFlow(quartic_real, cos_roof(4, amplitude=0.01))
        expected, accepted = independent_pairs_reference(flow, self.POINT, 3, self.SEED)
        assert accepted == [0, 3, 9]
        gradient_batches.clear()
        pairs = pcf.find_independent_pairs(flow, self.POINT, count=3, seed=self.SEED)
        assert [(tuple(v.hex() for v in a), tuple(v.hex() for v in w)) for a, w in pairs] == [
            (tuple(v.hex() for v in a), tuple(v.hex() for v in w)) for a, w in expected]
        # no draw past the one-draw-at-a-time loop's last
        assert gradient_batches == [3, 2, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("count", [1, 2])
    def test_budget_counts_gradient_rows(
            self, companion3_const_flow, gradient_batches, monkeypatch, count):
        # every draw of the constant roof is rejected; the last round of
        # the count of 2 is cut to the one draw the budget has left
        monkeypatch.setattr(pcf, "PAIR_BUDGET", 5)
        with pytest.raises(DegenerateGradients, match="found only 0 independent gradients within 5"):
            pcf.find_independent_pairs(companion3_const_flow, BASE_POINT, count=count, seed=0)
        assert gradient_batches == ([1] * 5 if count == 1 else [2, 2, 1])

    @pytest.mark.parametrize("count", [0, 3, -1])
    def test_count_outside_unstable_dimension_refused(self, companion3_flow, monkeypatch, count):
        # dim E^u = 2: no draw is made for a count it cannot hold
        def no_draw(*args):
            raise AssertionError("a gradient was drawn")

        monkeypatch.setattr(pcf, "pcf_gradient", no_draw)
        with pytest.raises(ValueError, match=rf"count must lie in \[1, 2\] \(dim E\^u\), got {count}"):
            pcf.find_independent_pairs(companion3_flow, BASE_POINT, count=count, seed=5)


class TestConjugacy:
    def test_pushforward_intertwines_evolution(self, companion3_flow):
        flow2, conj = pcf.translate_flow(
            companion3_flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        )
        x0, s0 = make_point(companion3_flow, [0.21, 0.84, 0.37], 0.2)
        image = make_point(flow2, conj.apply_base(x0), s0)
        for t in (0.7, 3.3):
            x, s = evolve_mp(companion3_flow, x0, s0, t)
            lhs = [c + mp.mpf(v.numerator) / v.denominator for c, v in zip(x, conj.v)], s
            rhs = evolve_mp(flow2, *image, t)
            assert distance_mp(flow2, lhs, rhs) <= 1e-10

    def test_identity_conjugacy_exact(self, companion3_flow):
        flow2, conj = pcf.translate_flow(companion3_flow, (0, 0, 0))
        quads = pcf.sample_quadrilaterals(companion3_flow, 10, seed=4)
        assert pcf.conjugacy_invariance_check(
            companion3_flow, flow2, conj, quads
        ) <= 1e-12

    def test_translation_invariance(self, companion3_flow):
        flow2, conj = pcf.translate_flow(
            companion3_flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        )
        quads = pcf.sample_quadrilaterals(companion3_flow, 20, seed=9)
        assert pcf.conjugacy_invariance_check(
            companion3_flow, flow2, conj, quads
        ) <= 1e-6

    def test_time_shift_invariance(self, companion3_flow):
        # composing the conjugacy with the flow keeps PCF values: they depend
        # on the leaves only. Flowing the image corner across the roof (the
        # oracle's make_point) moves it to F x at fiber t0 and maps both
        # displacements by the linear part L.
        flow = companion3_flow
        flow2, conj = pcf.translate_flow(
            flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        )
        lin = flow.base.as_array()
        t0 = 0.21
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(15):
            a = rng.random(3)
            w = flow.stable_frame() @ (rng.uniform(-1, 1, 1) * 0.02)
            u = flow.unstable_frame() @ (rng.uniform(-1, 1, 2) * 0.02)
            quad = pcf.Quadrilateral.build(flow, a, w, u)
            [rho1] = pcf.temporal_distance_series(flow, [quad])
            image = conj.apply_base(a)
            x, s = make_point(flow2, image, flow2.roof(image) + t0)
            assert s == pytest.approx(t0, abs=1e-12)
            moved = pcf.Quadrilateral(a=x, s_disp=tuple(lin @ w), u_disp=tuple(lin @ u), fiber=s)
            [rho2] = pcf.temporal_distance_series(flow2, [moved])
            worst = max(worst, abs(rho1 - rho2))
        assert worst <= 1e-6


class TestReconstruction:
    def test_identity_recovers_identity(self, companion3_flow):
        flow = companion3_flow
        bp = BASE_POINT
        pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=5)
        kernel = pcf.matching_kernel_dimension(flow, bp, pairs)
        flow2, conj = pcf.translate_flow(flow, (0, 0, 0))
        rec = pcf.reconstruct_conjugacy_patch(
            flow, flow2, conj, kernel, pairs, grid_n=2
        )
        assert rec.sup_error <= 1e-8

    def test_translation_recovered(self, companion3_flow):
        flow = companion3_flow
        bp = BASE_POINT
        pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=5)
        kernel = pcf.matching_kernel_dimension(flow, bp, pairs)
        flow2, conj = pcf.translate_flow(
            flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        )
        rec = pcf.reconstruct_conjugacy_patch(
            flow, flow2, conj, kernel, pairs, grid_n=3
        )
        assert rec.sup_error <= 1e-4

    def test_newton_out_of_steps_raises(self, companion3_flow, monkeypatch):
        # one chart evaluation per grid point: only the centre can converge
        flow = companion3_flow
        bp = BASE_POINT
        pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=5)
        kernel = pcf.matching_kernel_dimension(flow, bp, pairs)
        flow2, conj = pcf.translate_flow(
            flow, (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
        )
        monkeypatch.setattr(pcf, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(TruncationInsufficient, match=r"grid offset \[-0.008, -0.008\].*last residual"):
            pcf.reconstruct_conjugacy_patch(
                flow, flow2, conj, kernel, pairs, grid_n=3
            )

    def test_lockstep_matches_per_point_newton(self):
        # the bundled subbundle config, as _run_subbundle runs it; its report
        # keeps only sup_error, so the recovered points are compared here
        cfg = experiments.load_config(
            Path(__file__).resolve().parents[1] / "configs" / "subbundle_companion3.json")
        matrix = experiments.build_matrix(cfg.matrix)
        flow = SuspensionFlow(matrix, experiments.build_roof(cfg.roof, matrix.dim))
        bp = np.array(cfg.params["base_point"]) % 1.0
        flow2, conj = pcf.translate_flow(flow, [Fraction(v) for v in cfg.params["translation"]])
        pairs = pcf.find_independent_pairs(flow, bp, count=2, seed=cfg.seed)
        kernel = pcf.matching_kernel_dimension(flow, bp, pairs)
        rec = pcf.reconstruct_conjugacy_patch(
            flow, flow2, conj, kernel, pairs, grid_n=3
        )
        expected = patch_newton_reference(flow, flow2, conj, kernel, pairs, 0.008, 3)
        assert [[v.hex() for v in row] for row in rec.recovered.tolist()] == [
            [v.hex() for v in row] for row in expected.tolist()
        ]

    def test_more_pairs_than_unstable_dimension_refused(self, companion3_flow, monkeypatch):
        # three pairs for a 2-dimensional patch: a typed refusal before any
        # chart value, not a non-square Newton solve
        flow = companion3_flow
        pairs = pcf.find_independent_pairs(flow, BASE_POINT, count=2, seed=5)
        pairs = pairs + [(pairs[0][0], tuple(0.5 * np.asarray(pairs[0][1])))]
        kernel = pcf.matching_kernel_dimension(flow, BASE_POINT, pairs)
        flow2, conj = pcf.translate_flow(flow, (0, 0, 0))

        def no_chart(*args):
            raise AssertionError("the chart was evaluated")

        monkeypatch.setattr(pcf, "_pcf_map", no_chart)
        with pytest.raises(DegenerateGradients, match="need 2 pairs for a 2-dimensional patch, got 3"):
            pcf.reconstruct_conjugacy_patch(flow, flow2, conj, kernel, pairs, grid_n=2)

    def test_constant_roof_degenerate(self, companion3_const_flow):
        flow = companion3_const_flow
        bp = BASE_POINT
        pairs = [
            (bp, tuple(0.01 * flow.stable_frame()[:, 0])),
            (bp, tuple(0.005 * flow.stable_frame()[:, 0])),
        ]
        kernel = pcf.matching_kernel_dimension(flow, bp, pairs)
        flow2, conj = pcf.translate_flow(flow, (0, 0, 0))
        with pytest.raises(DegenerateGradients):
            pcf.reconstruct_conjugacy_patch(flow, flow2, conj, kernel, pairs, grid_n=3)


class TestSampleExports:
    def test_csv_shapes(self, tmp_path):
        cfg = experiments.ExperimentConfig.from_dict({
            "kind": "pcf",
            "matrix": {"poly": [-1, 0, 1, 1]},
            "roof": {"constant": 1.0, "terms": [{"k": [1, 0, 0], "re": 0.05}]},
            "params": {"n_samples": 3},
        })
        experiments.run_experiment(cfg, tmp_path)
        header, *rows = (tmp_path / "samples.csv").read_text().splitlines()
        assert header == (
            "ax1,ax2,ax3,as,sdisp1,sdisp2,sdisp3,udisp1,udisp2,udisp3,"
            "value_series,value_geometric,discrepancy"
        )
        flow = SuspensionFlow(experiments.build_matrix(cfg.matrix),
                              experiments.build_roof(cfg.roof, 3))
        quads = pcf.sample_quadrilaterals(flow, 3, seed=0)
        discrepancies = [abs(s - g) for s, g in zip(pcf.temporal_distance_series(flow, quads),
                                                    pcf.temporal_distance_geometric(flow, quads))]
        cells = [row.split(",") for row in rows]
        assert len(cells) == 3
        assert all(len(r) == len(header.split(",")) for r in cells)
        for discrepancy, row in zip(discrepancies, cells):
            assert float(row[-1]) == discrepancy <= 1e-6
