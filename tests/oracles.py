"""Independent test oracles: extended-precision flow evolution and sums.

These deliberately avoid the package's series machinery. The flow oracle
iterates roof crossings in 50-digit arithmetic, so hyperbolic error
amplification stays far below every asserted tolerance, and
`sampled_stable_sup` samples the sup-product that
`regularity.bunching_report` gives in closed form.

The exceptions run package series. `section_roof` builds the
bent-section return time, which `SectionChart` takes to be constant on
both axes, from the package's time adjustments. `series_pins` and
`return_pins` run the package's leaf-graph, PCF and bump return series,
and `tests/test_series_pins.py` holds their output as float.hex literals,
so a refactor of the series must keep every bit. `certified_sum` and
`carried` are the one-series loop and state walk that the lockstep
`flow.certified_sums` replaced. `return_series_reference` is the per-point
loop that `perturb.return_series` replaced, kept on them as the reference
it must equal; `time_adjustment_reference` and
`patch_newton_reference` are likewise the one-request leaf series and the
one-grid-point patch Newton that the lockstep batches replaced,
`independent_pairs_reference` the one-draw-at-a-time pair search that
the rounds of `pcf.find_independent_pairs` replaced, and
`temporal_distance_geometric_reference` the one-quadrilateral geometric
route. `python_int_segments` is the orbit walk on Python ints that the
int64 limb branch of `intlinalg.orbit_segments` replaced for 2^k > 2^64,
and `limb_numerators` reads that branch's limbs back as Python ints.
`orbit_numerators` is the one-step walk on Python ints that
`orbit_segments` replaced in every package orbit, and the reference of
the orbit tests.
`periodic_points_reference` is the Python-int enumeration and orbit walk
that the int64 arrays of `roof.periodic_points` replaced.
`heteroclinic_data_reference`, `homoclinic_vectors_reference` and
`backward_approach_reference` are the per-offset, per-vector and
per-point-pair loops of the kappa set-up that the array passes of
`perturb.find_heteroclinic_data`, `perturb.homoclinic_vectors` and
`perturb._verify_backward_approach` replaced, one BLAS dot or one
Python-int sum at a time.
`make_point` is the float normalisation into the fundamental domain, with
the float base maps `base_apply` and `base_apply_inv` it steps with, that
left the package when points became base points; the flow-geometry tests
follow flow orbits with it against `evolve_mp`.
`MPSplittingReference` is the 60-digit mpmath splitting that the exact
integer projector of `mpspec` replaced, and `tests/test_mpspec.py` holds
the projector's roundings to it bit for bit. `rationalize` is the
Fraction form of a float start reduced into [0, 1), as the exact walk
reduces every start, and the references above build their corners with
it and Fraction sums; `numerators` hands such points to the package's
exact orbits as integer numerators over their lcm. `evaluate`,
`gradient`, `eval_diff`, `gradient_diff` and `coords` are the per-point
roof and chart code that the row kernels of `TrigPolynomial` and
`SectionChart.coords_rows` replaced, each dot product one BLAS call per
point; the package's rows must equal them bit for bit.
`inverse_rational` is the Gauss-Jordan inverse over Q that
`IntegerMatrix.inverse_entries`, now V U from the unimodular
diagonalization, replaced. Print the literals with

    PYTHONPATH=src python tests/oracles.py
"""

import math
from fractions import Fraction
from itertools import chain, islice
from pprint import pprint

import mpmath as mp


def orbit_numerators(a, offset, start, den):
    """Exact orbit of start / den under x -> A x + offset / den mod 1, one step at a time.

    The one-step walk that `intlinalg.orbit_segments` replaced, kept as the
    reference its rows must equal. Points are integer numerators over the
    fixed denominator den, so a step is n <- (A n + offset) mod den, with
    no gcd. The start is yielded as given; later points are reduced into
    [0, den).
    """
    from anosovlab.intlinalg import mat_vec

    nums = tuple(start)
    while True:
        yield nums
        nums = tuple([(v + c) % den for v, c in zip(mat_vec(a, nums), offset)])


def rationalize(x):
    """A float point as exact Fractions reduced into [0, 1)."""
    return tuple(Fraction(float(v)) % 1 for v in x)


def numerators(points):
    """Rows of Fractions as (numerator rows, den), den the lcm of their denominators."""
    den = math.lcm(*(v.denominator for row in points for v in row))
    return [tuple(v.numerator * (den // v.denominator) for v in row) for row in points], den


def projected(split, v, direction):
    """`MPSplitting.project` of a float vector as a tuple of Fractions."""
    nums, den = split.project(v, direction)
    return tuple(Fraction(n, den) for n in nums)


TWO_PI = 2.0 * math.pi


def evaluate(poly, x):
    """The per-point `TrigPolynomial.evaluate` that became a one-row call."""
    import numpy as np

    xarr = np.asarray([float(v) for v in x], dtype=float) % 1.0
    phases = np.exp(1j * TWO_PI * (poly._freqs @ xarr))
    return float(np.real(poly._coeffs @ phases))


def gradient(poly, x):
    """The per-point `TrigPolynomial.gradient` that became a one-row call."""
    import numpy as np

    xarr = np.asarray([float(v) for v in x], dtype=float) % 1.0
    phases = np.exp(1j * TWO_PI * (poly._freqs @ xarr))
    return np.real((1j * TWO_PI * poly._freqs.T) @ (poly._coeffs * phases))


def eval_diff(poly, x, delta):
    """The per-point `TrigPolynomial.eval_diff` that became a one-row call."""
    import numpy as np

    xarr = np.asarray([float(v) for v in x], dtype=float) % 1.0
    darr = np.asarray([float(v) for v in delta], dtype=float)
    theta = TWO_PI * (poly._freqs @ xarr)
    beta = TWO_PI * (poly._freqs @ darr)
    expm1 = -2.0 * np.sin(0.5 * beta) ** 2 + 1j * np.sin(beta)
    phases = np.exp(1j * theta) * expm1
    return float(np.real(poly._coeffs @ phases))


def gradient_diff(poly, x, delta):
    """The per-point `TrigPolynomial.gradient_diff` that became a one-row call."""
    import numpy as np

    xarr = np.asarray([float(v) for v in x], dtype=float) % 1.0
    darr = np.asarray([float(v) for v in delta], dtype=float)
    theta = TWO_PI * (poly._freqs @ xarr)
    beta = TWO_PI * (poly._freqs @ darr)
    expm1 = -2.0 * np.sin(0.5 * beta) ** 2 + 1j * np.sin(beta)
    weights = poly._coeffs * np.exp(1j * theta) * expm1
    return np.real((1j * TWO_PI * poly._freqs.T) @ weights)


def coords(chart, v):
    """Chart coordinates (x, y) of one wrapped base displacement, the
    per-point `SectionChart.coords` that `coords_rows` replaced."""
    import numpy as np

    from anosovlab.flow import wrap_unit

    w = wrap_unit(np.asarray([float(c) for c in v], dtype=float))
    co = chart.flow.spectral.frame_inv @ w
    return co[: chart.dim_unstable].copy(), float(co[-1])


def inverse_rational(a):
    """Exact inverse of a square integer matrix by Gauss-Jordan over the
    rationals (raises on singular input)."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def roof_mp(poly, x):
    total = mp.mpf(0)
    for k, c in poly.terms.items():
        phase = 2 * mp.pi * sum(ki * xi for ki, xi in zip(k, x))
        total += mp.re(mp.mpc(c.real, c.imag) * mp.e ** (1j * phase))
    return total


def _to_mp(v):
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)
    if isinstance(v, mp.mpf):
        return v
    return mp.mpf(float(v))


def _step_mp(flow, pt, backward=False):
    """One step of the base map x -> L x + c mod 1, or of its inverse."""
    d = flow.dim
    c = [_to_mp(v) for v in flow.translation]
    if backward:
        inv = flow.inv_entries
        shifted = [pt[j] - c[j] for j in range(d)]
        return [mp.fmod(sum(inv[i][j] * shifted[j] for j in range(d)), 1) for i in range(d)]
    ent = flow.base.entries
    return [mp.fmod(sum(ent[i][j] * pt[j] for j in range(d)) + c[i], 1) for i in range(d)]


def base_apply(flow, x):
    """The float base map x -> L x + c mod 1 of `make_point`."""
    import numpy as np

    trans = np.array([float(v) for v in flow.translation])
    return (flow.lin @ np.asarray(x, dtype=float) + trans) % 1.0


def base_apply_inv(flow, x):
    """The float inverse base map of `make_point`."""
    import numpy as np

    trans = np.array([float(v) for v in flow.translation])
    return (flow.lin_inv @ (np.asarray(x, dtype=float) - trans)) % 1.0


def make_point(flow, x, s=0.0):
    """(x, s) normalized into the fundamental domain, as a (base tuple, fiber) pair.

    make_point(flow, x, s + t) is the point (x, s) flowed for time t, in
    floats; `evolve_mp` is the same walk in 50 digits.
    """
    import numpy as np

    xa = np.asarray([float(v) for v in x], dtype=float) % 1.0
    s = float(s)
    r = flow.roof(xa)
    guard = 0
    while s >= r:
        s -= r
        xa = base_apply(flow, xa)
        r = flow.roof(xa)
        guard += 1
        if guard > 10**7:
            raise ArithmeticError("normalization did not terminate")
    while s < 0.0:
        xa = base_apply_inv(flow, xa)
        r = flow.roof(xa)
        s += r
        guard += 1
        if guard > 10**7:
            raise ArithmeticError("normalization did not terminate")
    return tuple(xa), s


def evolve_mp(flow, x, s, t):
    """Flow the point (x, s) by time t with exact integer base maps."""
    with mp.workdps(50):
        pt = [_to_mp(v) for v in x]
        fiber = _to_mp(s) + _to_mp(t)
        r = roof_mp(flow.roof.poly, pt)
        while fiber >= r:
            fiber -= r
            pt = _step_mp(flow, pt)
            r = roof_mp(flow.roof.poly, pt)
        while fiber < 0:
            pt = _step_mp(flow, pt, backward=True)
            r = roof_mp(flow.roof.poly, pt)
            fiber += r
        return pt, fiber


def distance_mp(flow, a, b):
    """Fundamental-domain metric: max of base torus distance and fiber gap.

    Both points are also compared through one roof crossing either way, so
    points straddling the identification measure as close.
    """
    def variants(pt, fiber):
        pt = [_to_mp(v) for v in pt]
        yield pt, _to_mp(fiber)
        yield _step_mp(flow, pt), fiber - roof_mp(flow.roof.poly, pt)
        bwd = _step_mp(flow, pt, backward=True)
        yield bwd, fiber + roof_mp(flow.roof.poly, bwd)

    with mp.workdps(50):
        best = mp.mpf("inf")
        for xa, sa in variants(*a):
            for xb, sb in variants(*b):
                dx = mp.sqrt(
                    sum(
                        (mp.fmod(va - vb + mp.mpf("0.5"), 1) - mp.mpf("0.5")) ** 2
                        for va, vb in zip(xa, xb)
                    )
                )
                best = min(best, max(dx, abs(sa - sb)))
        return float(best)


def kahan_birkhoff(roof, matrix, x, n):
    """Compensated-summation Birkhoff sum along the float orbit."""
    import numpy as np

    arr = matrix.as_array()
    point = np.asarray([float(v) for v in x]) % 1.0
    total = 0.0
    comp = 0.0
    for _ in range(n):
        val = roof(point) - comp
        t = total + val
        comp = (t - total) - val
        total = t
        point = (arr @ point) % 1.0
    return total


def _cutoff(s):
    # 1 on [0, 1/2], 0 from 1 on, C^3 join
    t = min(max(2.0 * s - 1.0, 0.0), 1.0)
    return (1.0 - t * t) ** 4 if t < 1.0 else 0.0


def section_roof(chart, x, y):
    """Return time of the bent section at chart point (x, y).

    The section through the fixed point p is lifted over the chart box by
    the fibers of the local stable and unstable leaves of p (time
    adjustments from the origin), cut off smoothly towards the box edge.
    """
    import numpy as np

    from anosovlab.perturb import CHART_RADIUS_X, CHART_RADIUS_Y

    flow = chart.flow
    origin = np.zeros(flow.dim)
    z = chart.embed(x, y)

    def tau(v):
        xx, yy = coords(chart, v)
        chi = _cutoff(max(np.linalg.norm(xx) / CHART_RADIUS_X, abs(yy) / CHART_RADIUS_Y))
        if chi == 0.0:
            return 0.0
        theta_u, theta_s = flow.time_adjustment([
            (origin, chart.u_frame @ xx, "unstable"),
            (origin, chart.s_unit * yy, "stable"),
        ])
        return chi * (theta_u + theta_s)

    return flow.roof(z) + tau(base_apply(flow, z)) - tau(z)


SPHERE_SAMPLES = 1000   # sampled vector pairs: lands within 10% of the closed form in d = 3 and 4


def sampled_stable_sup(data, roof_mean, t, nu):
    """Sphere-sampling estimate of BunchingReport.stable_sup on the base-return lattice.

    Samples quasi-random unit vectors of E^s and E^u and measures growth in
    the block-adapted metric (coordinates with respect to the spectral
    frame), where complex pairs act as exact rotation-scalings. A lower
    bound for the closed-form sup, converging as the sampling refines.
    """
    import numpy as np

    steps = int(round(t / roof_mean))
    arr = np.linalg.matrix_power(data.matrix.as_array(), steps)
    frame_inv = np.linalg.inv(np.hstack([data.stable_basis, data.unstable_basis]))

    def adapted_norm(v):
        return float(np.linalg.norm(frame_inv @ v))

    rng = np.random.default_rng(12345)
    best = 0.0
    for _ in range(SPHERE_SAMPLES):
        vs = data.stable_basis @ rng.normal(size=data.stable_basis.shape[1])
        vu = data.unstable_basis @ rng.normal(size=data.unstable_basis.shape[1])
        vs /= adapted_norm(vs)
        vu /= adapted_norm(vu)
        best = max(best, adapted_norm(arr @ vs) * adapted_norm(arr @ vu) ** nu)
    return best


def pin_flows():
    """The three pinned roofs: name -> flow.

    companion3 (x^3 + x^2 - 1) under 1 + 0.1 cos(2 pi x1) and under a
    7-term roof off the axes, and the totally real quartic
    x^4 - x^3 - 4x^2 + 4x + 1 under 1 + 0.01 cos(2 pi x1).
    """
    from anosovlab.flow import SuspensionFlow
    from anosovlab.roof import RoofFunction, TrigPolynomial
    from anosovlab.spectral import IntegerMatrix

    def roof(dim, terms):
        poly = TrigPolynomial.constant(1.0, dim)
        for amplitude, k in terms:
            poly = poly + TrigPolynomial.cosine(amplitude, k, dim)
        return RoofFunction(poly)

    companion3 = IntegerMatrix.companion([-1, 0, 1, 1])
    quartic = IntegerMatrix.companion([1, 4, -4, -1, 1])
    seven = [(0.02, (1, 1, 0)), (0.03, (0, 2, 1)), (0.01, (1, -1, 1))]
    return {
        "companion3_cos": SuspensionFlow(companion3, roof(3, [(0.1, (1, 0, 0))])),
        "companion3_seven_term": SuspensionFlow(companion3, roof(3, seven)),
        "quartic_cos": SuspensionFlow(quartic, roof(4, [(0.01, (1, 0, 0, 0))])),
    }


# two chart points (x, y) per unstable dimension
PIN_CHART_POINTS = {
    2: [((0.04, -0.03), 0.21), ((-0.11, 0.07), -0.33)],
    3: [((0.04, -0.03, 0.02), 0.21), ((-0.11, 0.07, 0.05), -0.33)],
}


def series_pins() -> dict:
    """float.hex of the leaf-graph series at 2 chart points and of the
    temporal distance and PCF gradient at 4 quadrilaterals, per roof."""
    import numpy as np

    from anosovlab import pcf, perturb

    def hexed(value):
        return [float(v).hex() for v in value] if np.ndim(value) else float(value).hex()

    out = {}
    for name, flow in pin_flows().items():
        chart = perturb.SectionChart(flow)
        points = [(np.array(x), y) for x, y in PIN_CHART_POINTS[flow.dim_unstable]]
        quads = pcf.sample_quadrilaterals(flow, 4, seed=29)
        out[name] = {
            "t_series": [hexed(chart.t_series(x, y)) for x, y in points],
            "t_gradient_at_zero": [hexed(chart.t_gradient_at_zero(y)) for _, y in points],
            "unstable_slope": [hexed(chart.unstable_slope(y)) for _, y in points],
            "temporal_distance_series": [
                hexed(rho) for rho in pcf.temporal_distance_series(flow, quads)
            ],
            "pcf_gradient": [
                hexed(row) for row in pcf.pcf_gradient(flow, quads)
            ],
        }
    return out


def certified_sum(pairs, tol, total=0.0):
    """Sum (term, tail_bound) pairs left to right, up to the first tail_bound < tol.

    One series alone: each tail_bound bounds everything after its term,
    and `flow.MAX_TERMS` pairs without meeting tol raise
    TruncationInsufficient. `total` is the running sum to continue.
    """
    from anosovlab import flow
    from anosovlab.errors import TruncationInsufficient

    for term, tail in islice(pairs, flow.MAX_TERMS):
        total = total + term
        if tail < tol:
            return total
    raise TruncationInsufficient(
        f"series did not meet its tail bound {tol:g} within {flow.MAX_TERMS} terms"
    )


def carried(orbit, state, step):
    """Walk orbit segments carrying a state: (points, states, nexts) per segment.

    Point i of a segment sees states[i], and nexts[i] = step(states[i]) is
    the state point i + 1 sees, across segment boundaries too.
    """
    for points in orbit:
        states, nexts = [], []
        for _ in points:
            states.append(state)
            state = step(state)
            nexts.append(state)
        yield points, states, nexts


def return_series_reference(chart, bump, x, y):
    """The per-point bump return series: (steps, gaps, terms, total).

    Every orbit point goes through `coords`, the hat test and
    `Bump.value_chart`; a step is recorded when it lies in the hat of
    radius 1.25 * bump.radius or has a nonzero term.
    """
    import numpy as np

    from anosovlab.flow import RETURN_TOL

    flow = chart.flow
    z0 = rationalize(chart.embed(x, 0.0))
    w_fr = projected(chart.split, chart.s_unit * float(y), "stable")
    z1 = tuple(a + b for a, b in zip(z0, w_fr))
    lam_abs = abs(chart.lam)
    lip = bump.lipschitz_bound()
    hat_radius = 1.25 * bump.radius
    steps, gaps, terms = [], [], []

    def pairs(gap):
        yield 0.0, lip * gap / (1.0 - lam_abs)
        orbit0 = chain.from_iterable(block[0] for block in flow.exact_orbit(*numerators([z0])))
        orbit1 = chain.from_iterable(block[0] for block in flow.exact_orbit(*numerators([z1])))
        for n, (p0, p1) in enumerate(zip(orbit0, orbit1)):
            x1, y1 = coords(chart, p1)
            x0c, y0c = coords(chart, p0)
            d1 = math.hypot(float(np.linalg.norm(x1)), y1 - bump.center_y)
            d0 = math.hypot(float(np.linalg.norm(x0c)), y0c - bump.center_y)
            hat = bool(min(d0, d1) <= hat_radius)
            term = bump.value_chart(x1, y1) - bump.value_chart(x0c, y0c)
            if hat or term != 0.0:
                steps.append(n)
                gaps.append(gap)
                terms.append(term)
            gap *= lam_abs
            yield term, lip * gap / (1.0 - lam_abs)

    total = certified_sum(pairs(float(np.linalg.norm([float(v) for v in w_fr]))), RETURN_TOL)
    return tuple(steps), tuple(gaps), tuple(terms), total


def time_adjustment_reference(flow, x, y, direction):
    """One leaf time adjustment, its series walked alone.

    The per-request loop that the batched `SuspensionFlow.time_adjustment`
    replaced, kept as the reference each of its values must equal bit for
    bit: the gap advances as `proj @ (step @ d)` along `carried`, and
    `certified_sum` adds the terms.
    """
    import numpy as np

    from anosovlab.flow import VALUE_TOL, wrap_unit

    xa = np.asarray([float(v) for v in x], dtype=float) % 1.0
    ya = np.asarray([float(v) for v in y], dtype=float) % 1.0
    delta = wrap_unit(ya - xa)
    flow.leaf_part(delta, direction)
    poly = flow.roof.poly
    if np.linalg.norm(delta) == 0.0 or poly.is_constant():
        return 0.0
    lip = poly.lipschitz_bound()
    if direction == "stable":
        step, proj, sign = flow.lin, flow.spectral.proj_s, 1.0
        rate = flow.spectral.lam
    else:
        step, proj, sign = flow.lin_inv, flow.spectral.proj_u, -1.0
        rate = 1.0 / flow.spectral.xi_min
        delta = proj @ (step @ delta)
    orbit = (block[0] for block in flow.exact_orbit(
        *numerators([rationalize(xa)]), backward=direction == "unstable"))
    return certified_sum(
        (
            (sign * term, lip * math.sqrt(d @ d) / (1.0 - rate))
            for points, deltas, nexts in carried(
                orbit, proj @ delta, lambda d: proj @ (step @ d))
            for term, d in zip(poly.eval_diff_rows(points, deltas), nexts)
        ),
        VALUE_TOL,
    )


def patch_newton_reference(flow1, flow2, conjugacy, kernel, pairs, patch_radius, grid_n):
    """Recovered points of the conjugacy patch, one grid point at a time.

    The per-point loop that the lockstep Newton of
    `pcf.reconstruct_conjugacy_patch` replaced: each chart value is its own
    one-quadrilateral series, and each grid point runs its Newton to the
    end before the next starts. Returns the (n, d) recovered base points.
    """
    import numpy as np

    from anosovlab import pcf
    from anosovlab.flow import wrap_unit

    def chart(flow, chart_pairs, point_base):
        values = []
        for a, s_disp in chart_pairs:
            vu = flow.leaf_part(wrap_unit(point_base - a), "unstable")
            quad = pcf.Quadrilateral(a=a, s_disp=tuple(s_disp), u_disp=tuple(vu))
            values.extend(pcf.temporal_distance_series(flow, [quad]))
        return np.array(values)

    n_u = flow1.dim_unstable
    jac = np.array(kernel.gradients)
    pairs2 = [(tuple(conjugacy.apply_base(a)), s_disp) for a, s_disp in pairs]
    u_frame = flow1.unstable_frame()
    origin = np.asarray(kernel.base_point)
    base2 = conjugacy.apply_base(origin)
    mesh = np.meshgrid(*[np.linspace(-patch_radius, patch_radius, grid_n)] * n_u, indexing="ij")
    recovered = []
    for c in np.stack([m.ravel() for m in mesh], axis=1):
        values2 = chart(flow2, pairs2, (base2 + u_frame @ c) % 1.0)
        coef = np.zeros(n_u)
        for _ in range(pcf.NEWTON_MAX_STEPS):
            resid = chart(flow1, pairs, (origin + u_frame @ coef) % 1.0) - values2
            if np.linalg.norm(resid) < pcf.NEWTON_TOL:
                break
            coef = coef - np.linalg.solve(jac, resid)
        recovered.append((origin + u_frame @ coef) % 1.0)
    return np.array(recovered)


def independent_pairs_reference(flow, base_point, count, seed):
    """The pair search one draw at a time: (pairs, index of each accepted draw).

    The loop that `pcf.find_independent_pairs` replaced with rounds of
    draws: each draw's gradient is its own one-quadrilateral
    `pcf_gradient` call, tested before the next draw is made.
    """
    import numpy as np
    from numpy.random import default_rng

    from anosovlab import pcf
    from anosovlab.errors import DegenerateGradients

    rng = default_rng(seed)
    u_frame = flow.unstable_frame()
    s_frame = flow.stable_frame()
    point = np.asarray(base_point, dtype=float)
    chosen, rows, accepted = [], [], []
    for draw in range(pcf.PAIR_BUDGET):
        c = rng.uniform(-1.0, 1.0, u_frame.shape[1]) * pcf.DISPLACEMENT_SCALE
        s_coef = rng.uniform(-1.0, 1.0, s_frame.shape[1]) * pcf.DISPLACEMENT_SCALE
        a = tuple(float(v) for v in (point - u_frame @ c) % 1.0)
        s_disp = s_frame @ s_coef
        [grad] = pcf.pcf_gradient(flow, [pcf.Quadrilateral(a, s_disp, u_frame @ c)])
        sv = np.linalg.svd(np.array(rows + [grad]), compute_uv=False)
        if sv[-1] > pcf.INDEPENDENCE_CUTOFF * sv[0] and sv[0] > 1e-12:
            rows.append(grad)
            chosen.append((a, tuple(float(v) for v in s_disp)))
            accepted.append(draw)
            if len(chosen) == count:
                return chosen, accepted
    raise DegenerateGradients(
        f"found only {len(chosen)} independent gradients within {pcf.PAIR_BUDGET} draws"
    )


def python_int_segments(a, offset, start, den, length, centred=False):
    """One exact orbit, `length` numerator rows at a time, on Python ints.

    The walk `intlinalg.orbit_segments` ran for every den past 2^64 before
    its limb branch: one object-array matmul of [A^j | sum_{i<j} A^i] with
    [n; offset] per segment, reduced mod den (into [-den/2, den/2) when
    centred). Yields lists of `length` tuples; row 0 is the start reduced.
    """
    import numpy as np

    from anosovlab import intlinalg

    d = len(a)
    power, partial = intlinalg.identity(d), ((0,) * d,) * d
    rows = []
    for _ in range(length + 1):
        rows.extend(p + q for p, q in zip(power, partial))
        partial = tuple(tuple(x + y for x, y in zip(q, p)) for q, p in zip(partial, power))
        power = intlinalg.mat_mul(a, power)
    stack = np.array(rows, dtype=object)
    lo = den // 2 if centred else 0
    vec = np.array([*start, *offset], dtype=object)
    while True:
        block = ((stack @ vec + lo) % den - lo).reshape(length + 1, d)
        vec[:d] = block[length]
        yield [tuple(int(v) for v in row) for row in block[:length]]


def limb_numerators(block, den):
    """Numerators over den = 2^k of an (L, m, length, d) limb block, as
    nested lists of Python-int tuples, one list per start."""
    import numpy as np

    from anosovlab.intlinalg import LIMB_BITS

    drop = LIMB_BITS * len(block) - (den.bit_length() - 1)
    return [
        [tuple(sum(int(v) << (LIMB_BITS * t) for t, v in enumerate(limbs)) >> drop
               for limbs in row) for row in rows]
        for rows in np.moveaxis(block, 0, -1)
    ]


def periodic_points_reference(matrix, n, roof=None):
    """`roof.periodic_points` as it was on Python ints, one orbit at a time.

    Every point of Fix(M^n) is one `intlinalg.mat_vec` of the scaled V with
    a lattice step, reduced mod den into a set; each orbit is walked from
    its least point with `orbit_numerators`, and its flow period
    is the `sum()` of one row evaluation of the cycle. The refusals are the
    package's.
    """
    import itertools

    import numpy as np

    from anosovlab import intlinalg
    from anosovlab.roof import PeriodicOrbitRecord

    d = matrix.dim
    dmat = intlinalg.mat_sub(matrix.power(n), intlinalg.identity(d))
    count = abs(intlinalg.det(dmat))
    _, s, v = intlinalg.unimodular_diagonalize(dmat)
    diag = [s[i][i] for i in range(d)]
    den = math.lcm(*diag)
    scaled = tuple(tuple(row[j] * (den // diag[j]) for j in range(d)) for row in v)
    points = {
        tuple(c % den for c in intlinalg.mat_vec(scaled, w))
        for w in itertools.product(*(range(s_j) for s_j in diag))
    }
    assert len(points) == count
    orbits, visited = [], set()
    for start in sorted(points):
        if start in visited:
            continue
        walk = orbit_numerators(matrix.entries, (0,) * d, start, den)
        cycle = [next(walk)]
        cycle.extend(itertools.takewhile(lambda p: p != start, walk))
        visited.update(cycle)
        flow = None
        if roof is not None:
            flow = float(sum(roof.poly.evaluate_rows(np.array(cycle) / den)))
        orbits.append(PeriodicOrbitRecord(tuple(cycle), den, len(cycle), flow))
    orbits.sort(key=lambda o: o.period_n)
    return orbits


def heteroclinic_data_reference(chart, q_period):
    """`perturb.find_heteroclinic_data` one orbit point and one offset at a time."""
    from itertools import product

    import numpy as np

    from anosovlab import perturb
    from anosovlab.roof import periodic_points

    orbits = [o for o in periodic_points(chart.flow.base, q_period) if o.period_n == q_period]
    low, high = perturb.HETEROCLINIC_Y_RANGE
    offsets = range(-perturb.HETEROCLINIC_OFFSET_BOUND, perturb.HETEROCLINIC_OFFSET_BOUND + 1)
    out = []
    for orbit in orbits:
        for idx, point in enumerate(orbit.numerators):
            qv = np.array(point) / orbit.den
            for off in product(offsets, repeat=chart.flow.dim):
                y_r = float(chart.flow.spectral.frame_inv[-1] @ (qv + np.array(off)))
                if not (low <= abs(y_r) <= high):
                    continue
                out.append(perturb.HeteroclinicDatum(
                    q_orbit=orbit, q_index=idx,
                    offset=tuple(int(v) for v in off),
                    y_r=y_r,
                    r_base=tuple(float(v % 1.0) for v in chart.s_unit * y_r),
                ))
    out.sort(key=lambda d: (-abs(d.y_r), d.q_index, d.offset))
    return out


def homoclinic_vectors_reference(flow):
    """`perturb.homoclinic_vectors` one integer vector at a time."""
    from itertools import product

    import numpy as np

    homo = []
    for m in product(range(-3, 4), repeat=flow.dim):
        if all(v == 0 for v in m):
            continue
        co = flow.spectral.frame_inv @ np.array(m, dtype=float)
        x_m, y_m = co[:-1], float(co[-1])
        if abs(y_m) <= 0.40 and 0.3 <= np.linalg.norm(x_m) <= 3.0:
            homo.append((m, x_m, y_m))
    return homo


def backward_approach_reference(chart, target, q_orbit, steps):
    """`perturb._verify_backward_approach` with one Python-int sum per pair of points."""
    from anosovlab import intlinalg

    den = q_orbit.den
    start, big = chart.split.stable_numerators(target, den)
    lift, half = big // den, big // 2
    q_pts = [[c * lift for c in pt] for pt in q_orbit.numerators]
    orbit = orbit_numerators(chart.flow.inv_entries, (0,) * chart.flow.dim, start, big)
    dist_sq = min(
        sum(((p - q + half) % big - half) ** 2 for p, q in zip(point, qp))
        for point in islice(orbit, 1, steps + 1) for qp in q_pts
    )
    return intlinalg.sqrt_ratio(dist_sq, big * big)


def temporal_distance_geometric_reference(flow, quad, tol=1e-8):
    """One quadrilateral's geometric temporal distance, its eight walks run alone.

    The per-quadrilateral route that the batched
    `pcf.temporal_distance_geometric` replaced: the same refined corners
    and horizons, with each Birkhoff sum a one-start `birkhoff_exact`.
    """
    import numpy as np

    from anosovlab import mpspec
    from anosovlab.flow import tail_horizon

    alpha = np.asarray(quad.a)
    w = np.asarray(quad.s_disp)
    u = np.asarray(quad.u_disp)
    target = 0.02 * tol
    lip = flow.roof.poly.lipschitz_bound()
    n_fwd = tail_horizon(lip, flow.spectral.lam, max(np.linalg.norm(w), 1e-6), target)
    n_bwd = tail_horizon(lip, 1.0 / flow.spectral.xi_min, max(np.linalg.norm(u), 1e-6), target)
    split = mpspec.splitting(flow.base)
    w_fr = projected(split, w, "stable")
    u_fr = projected(split, u, "unstable")
    alpha_fr = rationalize(alpha)

    def birkhoff(z, n, backward=False):
        return flow.birkhoff_exact(*numerators([z]), n, backward=backward)[0, -1]

    def forward_diff(z0, z1):
        return birkhoff(z1, n_fwd) - birkhoff(z0, n_fwd)

    def backward_diff(z0, z1):
        return birkhoff(z0, n_bwd, backward=True) - birkhoff(z1, n_bwd, backward=True)

    beta_fr = tuple(a + b for a, b in zip(alpha_fr, w_fr))
    zeta_fr = tuple(a + b for a, b in zip(alpha_fr, u_fr))
    hol_fr = tuple(a + b for a, b in zip(zeta_fr, w_fr))
    fiber_b = forward_diff(alpha_fr, beta_fr)
    fiber_x = backward_diff(alpha_fr, zeta_fr)
    fiber_hol = fiber_x + forward_diff(zeta_fr, hol_fr)
    fiber_y = fiber_b + backward_diff(beta_fr, hol_fr)
    return float(fiber_hol - fiber_y)


class MPSplittingReference:
    """The 60-digit splitting that the integer projector of `mpspec` replaced.

    Finds every root of the characteristic polynomial with `mp.polyroots`,
    solves for each eigenvector by LU, inverts the eigenvector frame and
    sums the stable rank-one projectors; `project` rounds the 60-digit
    projection of a float vector to numerators over 2^160.
    """

    DPS = 60
    DYADIC_BITS = 160

    def __init__(self, matrix):
        from anosovlab.intlinalg import char_poly

        self.matrix = matrix
        d = matrix.dim
        with mp.workdps(self.DPS):
            roots = mp.polyroots(
                [mp.mpf(c) for c in reversed(char_poly(matrix.entries))],
                maxsteps=400, extraprec=300,
            )
            frame = mp.matrix(d, d)
            for j, lam in enumerate(roots):
                for i, x in enumerate(self._eigvec(lam)):
                    frame[i, j] = x
            frame_inv = frame ** -1
            p_stable = mp.matrix(d, d)
            for j, lam in enumerate(roots):
                if abs(lam) < 1:
                    for i in range(d):
                        for k in range(d):
                            p_stable[i, k] += frame[i, j] * frame_inv[j, k]
            self.stable_proj = mp.matrix(d, d)
            for i in range(d):
                for k in range(d):
                    val = p_stable[i, k]
                    if abs(mp.im(val)) > mp.mpf(10) ** (-self.DPS + 12):
                        raise ArithmeticError("stable projection came out non-real")
                    self.stable_proj[i, k] = mp.re(val)

    def _eigvec(self, lam):
        """Null vector of (M - lam I) by solving with one coordinate pinned."""
        d = self.matrix.dim
        a = [[mp.mpc(self.matrix.entries[i][j]) - (lam if i == j else 0) for j in range(d)]
             for i in range(d)]
        for free in range(d - 1, -1, -1):
            rows = [i for i in range(d) if i != free]
            sub = mp.matrix([[a[i][j] for j in rows] for i in rows])
            rhs = mp.matrix([-a[i][free] for i in rows])
            try:
                sol = mp.lu_solve(sub, rhs)
            except (ZeroDivisionError, ValueError):
                continue
            v = [mp.mpc(0)] * d
            v[free] = mp.mpc(1)
            for idx, j in enumerate(rows):
                v[j] = sol[idx]
            norm = mp.sqrt(sum(abs(x) ** 2 for x in v))
            return [x / norm for x in v]
        raise ArithmeticError("could not solve eigenvector system")

    def project(self, v, direction):
        d = self.matrix.dim
        scale = 1 << self.DYADIC_BITS
        with mp.workdps(self.DPS):
            vv = mp.matrix([mp.mpf(float(c)) for c in v])
            sv = self.stable_proj * vv
            out = sv if direction == "stable" else vv - sv
            return [int(mp.nint(out[i] * scale)) for i in range(d)], scale


def return_pin_setups():
    """kappa_experiment setups on companion3: roof name -> KappaSetup.

    The constant roof is the bundled claim44 config's; the cos roof checks
    that nothing in the return series reads the roof.
    """
    from anosovlab import perturb
    from anosovlab.flow import SuspensionFlow
    from anosovlab.roof import RoofFunction, TrigPolynomial
    from anosovlab.spectral import IntegerMatrix

    companion3 = IntegerMatrix.companion([-1, 0, 1, 1])
    cos = TrigPolynomial.constant(1.0, 3) + TrigPolynomial.cosine(0.05, (1, 0, 0), 3)
    return {
        "constant": perturb.kappa_experiment(
            SuspensionFlow(companion3, RoofFunction(TrigPolynomial.constant(1.0, 3))), n_points=25),
        "cos": perturb.kappa_experiment(
            SuspensionFlow(companion3, RoofFunction(cos)), n_points=25),
    }


# x_sequence entries pinned per setup. Their recorded steps are (20, 21),
# (1, 32, 33), (1, 63, 64) and (1, 69, 70): the last three straddle
# multiples of the 32-point orbit segment.
RETURN_PIN_ENTRIES = (0, 6, 21, 24)


def return_pins() -> dict:
    """float.hex of the return-series ledgers at the pinned x_sequence
    entries, and of the datum's backward distance, per roof."""
    import numpy as np

    from anosovlab import perturb

    out = {}
    for name, setup in return_pin_setups().items():
        xs = [np.array(setup.x_sequence[i]) for i in RETURN_PIN_ENTRIES]
        ledgers = perturb.return_series(setup.chart, setup.bump, xs, setup.datum.y_r)
        out[name] = {
            "ledgers": [{
                "steps": list(ledger.steps),
                "gaps": [g.hex() for g in ledger.gaps],
                "terms": [t.hex() for t in ledger.terms],
                "total": ledger.total.hex(),
            } for ledger in ledgers],
            "backward_distance": setup.datum.backward_distance.hex(),
        }
    return out


if __name__ == "__main__":
    pprint(series_pins(), width=92, sort_dicts=False)
    pprint(return_pins(), width=92, sort_dicts=False)
