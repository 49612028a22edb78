"""Exact points are integer numerators over one den, and no orbit path builds a Fraction.

`intlinalg.dyadic` turns float starts into numerator rows over den, each
float exactly and unreduced, and keeps den the least power of two of the
batch, so floats alone stay on the uint64 walk. `intlinalg.orbit_segments`
reduces every start once, as the Fraction form `rationalize` in
`tests/oracles.py` reduces it mod 1, so a start given in any range walks
the orbit of its reduced point. Corners are integer sums of such rows and
the numerators of `MPSplitting.project`. So, on a built flow whose
projector is built, both temporal-distance routes, the PCF gradient, the
three leaf-graph series of `SectionChart` and the bump return series call
`Fraction.__new__` zero times.
"""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import PIN_CHART_POINTS, rationalize

from anosovlab import intlinalg, mpspec, pcf, perturb
from anosovlab.flow import affine_orbit, affine_step

# -0.0, the least subnormal of either sign, the least normal, two x with
# x % 1.0 == 1.0 (the exact point is just under 1), and the largest float under 1
SPECIAL = [-0.0, 5e-324, -5e-324, 2.0**-1022, -1e-20, -(2.0**-60), 1.0 - 2.0**-53]
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_floats, _floats, _floats), min_size=1, max_size=4))
@example([tuple(SPECIAL[:3]), tuple(SPECIAL[3:6]), (SPECIAL[6], 0.5, 2.5)])
def test_dyadic_is_each_float_exactly(rows):
    nums, den = intlinalg.dyadic(rows)
    assert [tuple(Fraction(n, den) for n in row) for row in nums] == [
        tuple(Fraction(v) for v in row) for row in rows]
    # the least common denominator of the batch, a power of two
    assert den == math.lcm(*(Fraction(v).denominator for row in rows for v in row))
    assert den & (den - 1) == 0


def test_float_starts_stay_on_the_uint64_walk(companion3):
    nums, den = intlinalg.dyadic([(0.37, 0.91, 0.18), (0.5, 0.25, 0.0)])
    assert den <= 2**64
    block = next(intlinalg.orbit_segments(companion3.entries, (0, 0, 0), nums, den, 4))
    assert block.dtype == np.uint64


@pytest.mark.parametrize("branch, translated, rows", [
    ("uint64", False, [(0.37, 0.91, 0.18), (-(2.0**-60), 0.5, 0.25)]),
    ("limbs", False, [(0.37, 3e-5, 0.18), (-1e-20, 0.91, 0.5)]),
    ("crt", True, [(0.37, 0.91, 0.18), (-(2.0**-60), 0.5, 0.25)]),
    ("object", True, [(0.37, 3e-5, 0.18), (-1e-20, 0.91, 0.5)]),
])
def test_unreduced_starts_walk_as_reduced(companion3_flow, translated3, branch, translated, rows):
    # the walk reduces every start, so starts that are negative, at or past
    # den, or -1e-20 and -2^-60 (x % 1.0 == 1.0) give the float blocks of
    # their reduction bit for bit: forward, backward, and the centred walk
    # of the pcf_gradient gaps, here with the flow's backward offset, so
    # the translated flow's reaches CRT and object too
    flow = translated3 if translated else companion3_flow
    nums, den = intlinalg.dyadic(rows)
    inv, offset = flow.inv_entries, flow._inv_translation
    assert intlinalg._walk_branch(math.lcm(den, *(v.denominator for v in offset)), 3) == branch
    reduced = [[v % den for v in row] for row in nums]
    shifts = [(-1, 1, 3), (2, -3, 0)]   # multiples of den added to each coordinate
    shifted = [[v + k * den for v, k in zip(row, ks)] for row, ks in zip(reduced, shifts)]

    def walks(starts):
        orbits = (flow.exact_orbit(starts, den), flow.exact_orbit(starts, den, backward=True),
                  affine_orbit(inv, offset, *affine_step(inv, offset, starts, den), centred=True))
        return [block.tobytes() for orbit in orbits for block in islice(orbit, 3)]

    expected = walks(reduced)
    assert walks(nums) == expected and walks(shifted) == expected
    first = next(flow.exact_orbit(nums, den))[:, 0]
    assert first.tolist() == [[float(v) for v in rationalize(row)] for row in rows]


def _fractions_built(monkeypatch, runs: dict) -> dict:
    """The number of Fraction.__new__ calls each of the named runs makes, in turn."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    counts = {}
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting))
        for name, run in runs.items():
            before = len(built)
            run()
            counts[name] = len(built) - before
    return counts


@pytest.mark.parametrize("translated", [False, True])
def test_pcf_routes_build_no_fraction(companion3_flow, translated3, translated, monkeypatch):
    flow = translated3 if translated else companion3_flow
    mpspec.splitting(flow.base)
    quads = pcf.sample_quadrilaterals(flow, 6, seed=29)
    counts = _fractions_built(monkeypatch, {
        "series": lambda: pcf.temporal_distance_series(flow, quads),
        "geometric": lambda: pcf.temporal_distance_geometric(flow, quads),
        "pcf_gradient": lambda: pcf.pcf_gradient(flow, quads),
    })
    assert counts == dict.fromkeys(counts, 0)


def test_chart_series_build_no_fraction(companion3_flow, kappa_setup, monkeypatch):
    chart = perturb.SectionChart(companion3_flow)
    points = [(np.array(x), y) for x, y in PIN_CHART_POINTS[2]]
    setup = kappa_setup
    counts = _fractions_built(monkeypatch, {
        "t_series": lambda: [chart.t_series(x, y) for x, y in points],
        "t_gradient_at_zero": lambda: [chart.t_gradient_at_zero(y) for _, y in points],
        "unstable_slope": lambda: [chart.unstable_slope(y) for _, y in points],
        "return_series": lambda: perturb.return_series(
            setup.chart, setup.bump, setup.x_sequence[:8], setup.datum.y_r),
    })
    assert counts == dict.fromkeys(counts, 0)
