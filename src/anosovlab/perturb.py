"""Roof-bump perturbations near a fixed point and their holonomy derivatives.

The suspension is presented over a section through the base fixed point p
that contains both local invariant leaves of p, with coordinates
(x, y) = (unstable, stable) in which the return map is the exact linear
block map f(x, y) = (A x, lambda y). A compactly supported bump added to
the section roof vanishes on the stable axis, so W^s_loc(p) survives the
reparametrization; the bump's effect on stable-graph times is a return
series over the exact base orbit, summed like the graph-time series by
`flow.certified_sums`, and its derivative at the heteroclinic stable
coordinate is the corner entry of the perturbed holonomy matrix.
"""

from __future__ import annotations

import math
from itertools import islice, product
from typing import NamedTuple

import numpy as np

from . import intlinalg, mpspec, util
from .errors import ChartExit, ResidualBelowNoise
from .flow import (
    BATCH_ORBITS, RETURN_TOL, SEGMENT, VALUE_TOL, SuspensionFlow, certified_sums,
    wrap_unit,
)
from .roof import PeriodicOrbitRecord, periodic_points, row_products, row_squares
from .spectral import InvariantSubspaceCatalog

# Fixed choices of the section chart, the heteroclinic search and the fits.
CHART_RADIUS_X = 0.2    # unstable half-width of the chart box
CHART_RADIUS_Y = 0.45   # stable half-width, short of the torus half-period 1/2
HETEROCLINIC_OFFSET_BOUND = 2        # translates q + m tried, m in [-2, 2]^d: 5^d per point
HETEROCLINIC_Y_RANGE = (0.12, 0.45)  # |y_r| of a datum: off the fixed point, inside the box
VERIFY_STEPS = 170      # backward steps of the exact integer check that a datum approaches q
APPROACH_TOL = 1e-8     # a datum's backward orbit must come this close to q within VERIFY_STEPS
CONTAINMENT_TOL = 1e-8  # sweep: invariant subspace in a holonomy graph, and catalog subspace in E^u
FIT_FLOOR = 1e-14       # errors at or under this are rounding noise, left out of order fits
HAT_FACTOR = 1.25       # return-series rows within this many bump radii are recorded
SCREEN_SLACK = 1e-9     # relative slack of the squared-distance screen over the scalar hypot
KAPPA_Q_PERIOD = 4                  # kappa experiment: period of the heteroclinic orbit q
KAPPA_NORM_RANGE = (1e-4, 1e-1)     # kappa experiment: least and greatest |x| of the fit
KAPPA_AMPLITUDE = 0.1               # kappa experiment: bump amplitude


# ---------------------------------------------------------------------------
# section chart


class SectionChart:
    """Section coordinates (x, y) at the base fixed point of a suspension.

    Valid for suspensions whose base map fixes the origin (no translation
    part). The section is bent along the local leaves of p,
    which makes the unperturbed return time constant on both axes and the
    stable graph time T(x, y) vanish on them.
    """

    def __init__(self, flow: SuspensionFlow):
        if any(t != 0 for t in flow.translation):
            raise ValueError("section charts require a fixed point at the origin")
        self.flow = flow
        self.u_frame = flow.unstable_frame()
        self.s_unit = flow.stable_frame()[:, 0]
        self.lam = flow.spectral.stable_eigenvalue
        # the spectral frame is [u_frame | s_unit], so the last chart coordinate is y
        block = flow.spectral.frame_inv @ flow.lin @ flow.spectral.frame
        self.a_u = block[: flow.dim_unstable, : flow.dim_unstable].copy()
        self.split = mpspec.splitting(flow.base)

    @property
    def dim_unstable(self) -> int:
        return self.flow.dim_unstable

    @property
    def kappa(self) -> float:
        spectral = self.flow.spectral
        return -math.log(spectral.lam) / math.log(spectral.xi_max)

    def coords_rows(self, points) -> np.ndarray:
        """Chart coordinates (x, y) of each wrapped row of an (N, d) array, as (N, d) rows.

        The unstable x is the first dim_unstable columns and the stable y the last.
        """
        return row_products(self.flow.spectral.frame_inv, wrap_unit(points))

    def embed(self, x, y: float) -> np.ndarray:
        return self.u_frame @ np.asarray(x, dtype=float) + float(y) * self.s_unit

    def in_box(self, x, y: float) -> bool:
        return np.linalg.norm(x) <= CHART_RADIUS_X and abs(y) <= CHART_RADIUS_Y

    # -- leaf-graph series -------------------------------------------------

    def t_series(self, x, y: float) -> float:
        """Unperturbed stable graph time T(x, y); zero on both axes.

        Double-paired series sum_n [roof(L^n(z + w)) - roof(L^n z)]
        - [roof(L^n w) - roof(0)] with z = Ux on the exact orbit and
        w the refined stable vector of length y.
        """
        poly = self.flow.roof.poly
        if poly.is_constant() or float(y) == 0.0 or not np.any(x):
            return 0.0
        flow = self.flow
        z, z_den = intlinalg.dyadic([self.embed(x, 0.0)])
        lip = poly.lipschitz_bound()
        lam_abs = abs(self.lam)
        w, den = self.split.project(self.s_unit * float(y), "stable")
        gap = np.array([[v / den for v in w]])
        orbit = flow.exact_orbit(z, z_den)

        def segment(active):
            nonlocal gap
            points = next(orbit)[active]
            length, d = points.shape[1:]
            deltas, nexts = flow.walk_gaps(gap, "stable", length)
            gap = nexts[:, -1]
            rows = deltas.reshape(-1, d)
            factors = poly.gap_factors(rows)   # shared by both differences
            terms = (poly.factor_diff_rows(poly.orbit_factors(points.reshape(-1, d)), factors)
                     - poly.factor_diff_rows(poly.orbit_factors(np.zeros_like(rows)), factors))
            return terms[None], 2.0 * lip * np.sqrt(row_squares(nexts))

        return certified_sums(segment, VALUE_TOL, [0.0], lam_abs)[0][0]

    def t_gradient_at_zero(self, y: float) -> np.ndarray:
        """D_x T(0, y): the forward PCF gradient half along the stable axis orbit."""
        poly = self.flow.roof.poly
        if poly.is_constant() or float(y) == 0.0:
            return np.zeros(self.dim_unstable)
        w, den = self.split.project(self.s_unit * float(y), "stable")
        # the origin is fixed, so its orbit repeats it
        return self.flow.stable_gradient([(0,) * self.flow.dim], 1, [[v / den for v in w]])[0]

    def unstable_slope(self, y: float) -> np.ndarray:
        """Tangent slope of the unstable-leaf graph through (0, y) in the
        section time coordinate; zero for constant roofs. The backward PCF
        gradient half, with gradients paired against the fixed origin."""
        poly = self.flow.roof.poly
        if poly.is_constant() or float(y) == 0.0:
            return np.zeros(self.dim_unstable)
        flow = self.flow
        r, den = self.split.project(self.s_unit * float(y), "stable")
        # the origin is fixed (no translation), so its gradient is too
        grad_origin = poly.gradient(np.zeros(flow.dim))
        return flow.unstable_gradient(
            [r], den, lambda pts, active: grad_origin - poly.gradient_rows(pts),
            np.zeros((1, self.dim_unstable)),
        )[0]


# ---------------------------------------------------------------------------
# heteroclinic data


class HeteroclinicDatum(NamedTuple):
    """Point r on W^s_loc(p) whose backward orbit approaches the orbit of q."""

    q_orbit: PeriodicOrbitRecord
    q_index: int
    offset: tuple[int, ...]
    y_r: float
    r_base: tuple[float, ...]
    backward_distance: float | None = None


def make_heteroclinic_datum(
    chart: SectionChart,
    q_orbit: PeriodicOrbitRecord,
    q_index: int,
    offset,
) -> HeteroclinicDatum:
    """Intersect W^s_loc(p) with the weak-unstable leaf of q.

    The stable line hits q + offset + E^u exactly at the stable coordinate
    of q + offset; the datum is verified by walking the exact backward
    orbit of the projected point on integer numerators and measuring its
    least distance to the orbit of q.
    """
    den = q_orbit.den
    target = [c + int(m) * den for c, m in zip(q_orbit.numerators[q_index], offset)]
    r, r_den = chart.split.project([t / den for t in target], "stable")
    r_float = np.array([v / r_den for v in r])
    y_r = float(r_float @ chart.s_unit / (chart.s_unit @ chart.s_unit))
    dist = _verify_backward_approach(chart, target, q_orbit, VERIFY_STEPS)
    if dist > APPROACH_TOL:
        raise ArithmeticError(
            f"backward orbit only approached q to {dist:.3g}; datum rejected"
        )
    return HeteroclinicDatum(
        q_orbit=q_orbit,
        q_index=q_index,
        offset=tuple(int(v) for v in offset),
        y_r=y_r,
        r_base=tuple((v % r_den) / r_den for v in r),
        backward_distance=dist,
    )


def _verify_backward_approach(chart, target, q_orbit, steps: int) -> float:
    """Least distance from the backward orbit of r = P_s(q + m) to the orbit of q.

    r differs from q + m by an unstable vector, so its exact backward orbit
    must approach the orbit of q at the unstable contraction rate; float
    iteration would destroy this beyond ~40 steps. target holds the
    numerators of q + m over q.den; `stable_numerators` gives r over
    D = lcm(2^K, q.den), and `intlinalg.orbit_segments` walks it on
    integers for `steps` backward steps, one segment per SEGMENT steps.
    The squared torus distances and their minimum are exact; only the
    square root rounds, once, correctly.
    """
    den = q_orbit.den
    start, big = chart.split.stable_numerators(target, den)
    lift, half = big // den, big // 2
    q_pts = np.array(q_orbit.numerators, dtype=object) * lift
    blocks = intlinalg.orbit_segments(chart.flow.inv_entries, (0,) * chart.flow.dim, [start], big,
                                      SEGMENT)
    walk = [intlinalg.segment_numerators(block, big)[0]
            for block in islice(blocks, steps // SEGMENT + 1)]
    points = np.concatenate(walk)[1:steps + 1]
    # every backward point against every point of q, in Python ints; in
    # place, so that one array of them is alive at a time
    gaps = points[:, None] - q_pts
    gaps += half
    gaps %= big
    gaps -= half
    gaps *= gaps
    return intlinalg.sqrt_ratio(gaps.sum(axis=2).min(), big * big)


def find_heteroclinic_data(chart: SectionChart, q_period: int) -> list[HeteroclinicDatum]:
    """All candidate data from orbits of the given period, sorted by |y_r|.

    Candidates are built without the exact backward verification; call
    make_heteroclinic_datum on a chosen one for that.
    """
    orbits = [o for o in periodic_points(chart.flow.base, q_period) if o.period_n == q_period]
    if not orbits:
        raise ValueError(f"no orbit of period {q_period}")
    low, high = HETEROCLINIC_Y_RANGE
    bound = HETEROCLINIC_OFFSET_BOUND
    offsets = np.array(list(product(range(-bound, bound + 1), repeat=chart.flow.dim)))
    out = []
    for orbit in orbits:
        # every point q against every offset m: the stable coordinate of q + m
        points = np.array(orbit.numerators) / orbit.den
        rows = (points[:, None] + offsets).reshape(-1, chart.flow.dim)
        y_rs = row_products(chart.flow.spectral.frame_inv[-1], rows).reshape(len(points), -1)
        sizes = np.abs(y_rs)
        for idx, k in zip(*np.nonzero((low <= sizes) & (sizes <= high))):
            y_r = float(y_rs[idx, k])
            out.append(
                HeteroclinicDatum(
                    q_orbit=orbit, q_index=int(idx),
                    offset=tuple(int(v) for v in offsets[k]),
                    y_r=y_r,
                    r_base=tuple(float(v % 1.0) for v in chart.s_unit * y_r),
                )
            )
    out.sort(key=lambda d: (-abs(d.y_r), d.q_index, d.offset))
    return out


# ---------------------------------------------------------------------------
# bumps


class Bump(NamedTuple):
    """amplitude * <direction, x> * (1 - |(x, y) - center|^2 / radius^2)^4.

    Centered on the stable axis at (0, center_y); the linear factor makes
    the bump vanish identically on the stable axis (x = 0) and places its
    x-gradient at the center exactly at amplitude * direction.
    """

    center_y: float
    radius: float
    amplitude: float
    direction: tuple[float, ...]

    def value_chart(self, x, y: float) -> float:
        x = np.asarray(x, dtype=float)
        s = (float(np.linalg.norm(x)) ** 2 + (float(y) - self.center_y) ** 2) / self.radius**2
        if s >= 1.0:
            return 0.0
        return self.amplitude * float(np.dot(self.direction, x)) * (1.0 - s) ** 4

    def grad_x_chart(self, x, y: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.direction, dtype=float)
        s = (float(np.linalg.norm(x)) ** 2 + (float(y) - self.center_y) ** 2) / self.radius**2
        if s >= 1.0:
            return np.zeros_like(g)
        lin = float(np.dot(g, x))
        return self.amplitude * (
            (1.0 - s) ** 4 * g
            - lin * 4.0 * (1.0 - s) ** 3 * 2.0 * x / self.radius**2
        )

    def lipschitz_bound(self) -> float:
        # |grad| <= amplitude * (1 + 8 |<g,x>| |x| / radius^2) <= 9 * amplitude
        return 9.0 * abs(self.amplitude)


def make_bump(
    chart: SectionChart,
    datum: HeteroclinicDatum,
    radius: float,
    amplitude: float,
    direction,
) -> Bump:
    """Bump centered at f(r) subject to the support and positivity rules.

    The support ball must exclude r and f^2(r), stay inside the chart box,
    and amplitude * radius must stay below the section roof's floor so the
    perturbed return time remains positive.
    """
    lam = chart.lam
    center_y = lam * datum.y_r
    g = np.asarray(direction, dtype=float)
    g = g / np.linalg.norm(g)
    dist_r = abs(datum.y_r - center_y)
    dist_f2r = abs(lam * lam * datum.y_r - center_y)
    if radius >= min(dist_r, dist_f2r):
        raise ValueError(
            f"radius {radius:.4g} reaches r or f^2(r) "
            f"(distances {dist_r:.4g}, {dist_f2r:.4g})"
        )
    corner = np.abs(chart.embed(np.full(chart.dim_unstable, radius), center_y + radius))
    if np.max(corner) > 0.48:
        raise ValueError("bump support leaves the injective chart box")
    floor = chart.flow.roof.positivity_margin
    if abs(amplitude) * radius >= 0.5 * floor:
        raise ValueError("bump violates the positive-return-time margin")
    return Bump(
        center_y=float(center_y),
        radius=float(radius),
        amplitude=float(amplitude),
        direction=tuple(float(c) for c in g),
    )


# ---------------------------------------------------------------------------
# return series and stable graph times


class ReturnLedger(NamedTuple):
    """Per-iterate bookkeeping of the bump corrections along the orbit pair."""

    steps: tuple[int, ...]
    gaps: tuple[float, ...]
    terms: tuple[float, ...]
    total: float


def return_series(chart: SectionChart, bump: Bump | None, xs, y: float) -> list[ReturnLedger]:
    """Corrections sum_n bump(F^n(x, y)) - bump(F^n(x, 0)) over exact orbits.

    One ledger per x of xs, in order. Each orbit pair shares its unstable
    part, so consecutive gaps contract by exactly |lambda| and the
    geometric tail certificate terminates the sum. Only iterates in the hat
    (within HAT_FACTOR radii of the bump centre) or with a nonzero term are
    recorded.

    `certified_sums` takes BATCH_ORBITS // 2 points at a time, and the
    closure draws row k, the orbit pair of point k. The gaps depend on y
    alone, so one gap serves every row and the rows stop together; each
    ledger is bit-identical whatever else is in the batch. Row k of a
    segment records into the ledger of the open series active[k]. Each
    segment is screened in one array pass. A row whose two points both lie
    outside the hat, with SCREEN_SLACK to spare, has term exactly 0.0, since
    the bump vanishes from one radius on, and is not recorded; only the
    other rows run the hat test and `Bump.value_chart`, on the chart
    coordinates the screen already holds and with every |x| of the hat test
    from one `row_squares` pass over them.
    """
    empty = ReturnLedger(steps=(), gaps=(), terms=(), total=0.0)
    if bump is None:
        return [empty] * len(xs)
    flow = chart.flow
    w, w_den = chart.split.project(chart.s_unit * float(y), "stable")
    lam_abs = abs(chart.lam)
    lip = bump.lipschitz_bound()
    hat_radius = HAT_FACTOR * bump.radius
    screen_sq = hat_radius**2 * (1.0 + SCREEN_SLACK)
    centre = np.zeros(chart.dim_unstable + 1)
    centre[-1] = bump.center_y
    first_gap = float(np.linalg.norm([v / w_den for v in w]))
    if lip * first_gap / (1.0 - lam_abs) < RETURN_TOL:   # every series is already below tol
        return [empty] * len(xs)

    def segment(active):
        nonlocal gap, walked
        points = next(pairs)[active]
        m, _, length, d = points.shape
        co = chart.coords_rows(points.reshape(-1, d)).reshape(m, 2, length, d)
        off = co - centre
        near = (np.einsum("...j,...j->...", off, off) <= screen_sq).any(axis=1)
        # the gap at each point and after the segment, multiplied in turn
        ahead = np.multiply.accumulate([gap] + [lam_abs] * length)
        terms = np.zeros((m, length))
        rows, cols = np.nonzero(near)
        # |x| of both points of every near row, each the square root of its own ddot
        norms = np.sqrt(row_squares(np.ascontiguousarray(co[rows, :, cols, :-1])))
        for k, j, (n0, n1) in zip(rows, cols, norms):
            (x0c, y0c), (x1, y1) = ((c[:-1], float(c[-1])) for c in co[k, :, j])
            d1 = math.hypot(n1, y1 - bump.center_y)
            d0 = math.hypot(n0, y0c - bump.center_y)
            term = bump.value_chart(x1, y1) - bump.value_chart(x0c, y0c)
            terms[k, j] = term
            if min(d0, d1) <= hat_radius or term != 0.0:
                steps, gaps, row_terms = records[active[k]]
                steps.append(walked + int(j))
                gaps.append(float(ahead[j]))
                row_terms.append(term)
        gap, walked = float(ahead[-1]), walked + length
        return terms, lip * ahead[1:]   # one row of bounds, shared by every pair

    ledgers = []
    for lo in range(0, len(xs), BATCH_ORBITS // 2):
        batch = xs[lo:lo + BATCH_ORBITS // 2]
        z_rows, z_den = intlinalg.dyadic([chart.embed(x, 0.0) for x in batch])
        den = max(z_den, w_den)   # both powers of two, so their lcm
        starts = []
        for row in z_rows:
            z0 = [v * (den // z_den) for v in row]
            starts += [z0, [a + b * (den // w_den) for a, b in zip(z0, w)]]   # z1 unreduced
        gap, walked = first_gap, 0   # walked: orbit points before the current segment
        records = [([], [], []) for _ in batch]   # steps, gaps, terms of each row
        # two points a row, the pair of one x
        pairs = (block.reshape(-1, 2, *block.shape[1:]) for block in flow.exact_orbit(starts, den))
        totals, counts = certified_sums(segment, RETURN_TOL, [0.0] * len(batch), lam_abs)
        for (steps, gaps, terms), total, count in zip(records, totals, counts):
            kept = sum(1 for n in steps if n < count)   # no step past the stop
            ledgers.append(ReturnLedger(
                tuple(steps[:kept]), tuple(gaps[:kept]), tuple(terms[:kept]), total))
    return ledgers


def stable_graph_time(chart: SectionChart, bump: Bump | None, xs, y: float) -> list[float]:
    """Perturbed stable graph times T^rho(x, y), one per x of xs, in order.

    Each equals the unperturbed graph time plus the bump return series;
    it vanishes for x = 0 whatever the bump, because the bump vanishes on
    the stable axis and the unperturbed return time is constant along it.
    Every point is checked against the chart box before any series runs:
    one outside raises ChartExit.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not all(chart.in_box(x, y) for x in xs):
        raise ChartExit("graph point outside the chart box")
    ledgers = return_series(chart, bump, xs, y)
    return [chart.t_series(x, y) + ledger.total for x, ledger in zip(xs, ledgers)]


# ---------------------------------------------------------------------------
# derivative checks


class Claim44Report(NamedTuple):
    x_steps: tuple[float, ...]
    lhs_fd: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    kappa: float


def holonomy_corner(chart: SectionChart, datum: HeteroclinicDatum, bump: Bump | None) -> np.ndarray:
    """D_x T^rho(0, y_r) = D_x T(0, y_r) + D_x rho(f(r)) . D_x f.

    The bump gradient is taken at the first-return point f(r) = (0, lam y_r)
    in closed form; for the standard construction that point is the bump
    center and the gradient is amplitude * direction exactly. The perturbed
    stable holonomy's derivative on (x, t) coordinates of the weak-unstable
    leaf is [[Id, 0], [corner, 1]].
    """
    corner = chart.t_gradient_at_zero(datum.y_r)
    if bump is not None:
        grad_at_fr = bump.grad_x_chart(np.zeros(chart.dim_unstable), chart.lam * datum.y_r)
        corner = corner + grad_at_fr @ chart.a_u
    return corner


def claim44_check(
    chart: SectionChart,
    datum: HeteroclinicDatum,
    bump: Bump | None,
    steps,
) -> Claim44Report:
    """Central finite differences of the stable graph time against the
    analytic corner formula, with the convergence order of the errors."""
    steps = [float(h) for h in steps]
    if any(h2 >= h1 for h1, h2 in zip(steps, steps[1:])):
        raise ValueError("steps must decrease")
    n_u = chart.dim_unstable
    rhs = holonomy_corner(chart, datum, bump)
    # T^rho at x = h e_j and at -h e_j, for every step h and direction j, in one call
    points = [sign * h * e for h in steps for e in np.eye(n_u) for sign in (1.0, -1.0)]
    times = np.reshape(stable_graph_time(chart, bump, points, datum.y_r), (len(steps), n_u, 2))
    lhs_rows = []
    errors = []
    for h, pairs in zip(steps, times):
        fd = (pairs[:, 0] - pairs[:, 1]) / (2.0 * h)
        lhs_rows.append(tuple(float(v) for v in fd))
        errors.append(float(np.max(np.abs(fd - rhs))))
    fitted = _fit_order(steps, errors)
    return Claim44Report(
        x_steps=tuple(steps),
        lhs_fd=tuple(lhs_rows),
        rhs=tuple(float(v) for v in rhs),
        errors=tuple(errors),
        fitted_order=fitted,
        kappa=chart.kappa,
    )


def _fit_order(xs, ys) -> float:
    pairs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > FIT_FLOOR]
    if len(pairs) < 2:
        return float("inf")
    lx = np.array([p[0] for p in pairs])
    ly = np.array([p[1] for p in pairs])
    slope = float(np.polyfit(lx, ly, 1)[0])
    return slope


class RemainderFit(NamedTuple):
    norms: tuple[float, ...]
    residuals: tuple[float, ...]
    exponent: float


def remainder_exponent(
    chart: SectionChart,
    datum: HeteroclinicDatum,
    bump: Bump,
    x_sequence,
) -> RemainderFit:
    """Fit |T^rho - T - rho(f(x, y_r))| against |x| on a log-log scale.

    The first-return bump value is excluded, so the residual is exactly the
    second-and-later return series; noise-floor entries are dropped, and
    fewer than two distinct norms left to fit raise ResidualBelowNoise.
    """
    norms, residuals = [], []
    xs = [np.asarray(x, dtype=float) for x in x_sequence]
    for x, ledger in zip(xs, return_series(chart, bump, xs, datum.y_r)):
        resid = abs(sum(t for n, t in zip(ledger.steps, ledger.terms) if n >= 2))
        if resid >= 1e-12:
            norms.append(float(np.linalg.norm(x)))
            residuals.append(resid)
    if len(set(norms)) < 2:
        raise ResidualBelowNoise(
            f"second-return corrections clear 1e-12 at {len(set(norms))} distinct "
            "norms; the exponent fit needs two"
        )
    slope = _fit_order(norms, residuals)
    return RemainderFit(
        norms=tuple(norms), residuals=tuple(residuals), exponent=slope
    )


# ---------------------------------------------------------------------------
# Grassmannian sweep


class SweepEntry(NamedTuple):
    gradient: tuple[float, ...]
    contained_indices: tuple[int, ...]
    avoids_all: bool


class SweepReport(NamedTuple):
    entries: tuple[SweepEntry, ...]
    diameter: float
    any_gradient_avoids_all: bool
    vacuous: bool


def grassmannian_sweep(
    chart: SectionChart,
    datum: HeteroclinicDatum,
    gradient_grid,
    catalog: InvariantSubspaceCatalog,
) -> SweepReport:
    """Sweep bump gradients and test invariant-subspace containment.

    For each candidate x-gradient c the image of E^u under the perturbed
    holonomy derivative toward p is the graph {(v, (A - c') v)} with
    c' = D_x T + c . D_x f and A the unstable-leaf slope at r; an invariant
    subspace F survives only if it sits inside that graph, i.e. F is in the
    kernel of (A - c'). The report records which gradients avoid every F
    and the principal-angle diameter of the swept graphs.
    """
    n_u = chart.dim_unstable
    slope = chart.unstable_slope(datum.y_r)
    base_grad = chart.t_gradient_at_zero(datum.y_r)

    f_coords = []
    for sub in catalog.subspaces:
        coords = np.linalg.lstsq(chart.u_frame, sub, rcond=None)[0]
        resid = chart.u_frame @ coords - sub
        if np.linalg.norm(resid) > CONTAINMENT_TOL:
            raise ValueError("invariant subspace does not lie in E^u")
        f_coords.append(coords)

    entries = []
    graphs = []
    for g in gradient_grid:
        g = np.asarray(g, dtype=float)
        corner = base_grad + g @ chart.a_u
        row = slope - corner
        graph = np.vstack([np.eye(n_u), row[None, :]])
        graphs.append(graph)
        contained = []
        for idx, coords in enumerate(f_coords):
            emb = np.vstack([coords, np.zeros((1, coords.shape[1]))])
            if util.contains_subspace(graph, emb, tol=CONTAINMENT_TOL):
                contained.append(idx)
        entries.append(
            SweepEntry(
                gradient=tuple(float(v) for v in g),
                contained_indices=tuple(contained),
                avoids_all=not contained,
            )
        )
    diameter = 0.0
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            diameter = max(diameter, util.subspace_distance(graphs[i], graphs[j]))
    return SweepReport(
        entries=tuple(entries),
        diameter=float(diameter),
        any_gradient_avoids_all=any(e.avoids_all for e in entries),
        vacuous=len(catalog.subspaces) == 0,
    )


# ---------------------------------------------------------------------------
# the kappa experiment: engineered second returns


def homoclinic_vectors(flow: SuspensionFlow) -> list[tuple[tuple[int, ...], np.ndarray, float]]:
    """(m, x_m, y_m) for the nonzero m in [-3, 3]^d near the unstable leaf of p.

    x_m and y_m are the chart coordinates of the integer vector m; it is
    kept when |y_m| <= 0.4 and 0.3 <= |x_m| <= 3, in `product` order.
    All 7^d - 1 vectors take one pass for the coordinates and one for the
    squared norms.
    """
    ms = np.array([m for m in product(range(-3, 4), repeat=flow.dim) if any(m)])
    co = row_products(flow.spectral.frame_inv, ms.astype(float))
    x_ms = np.ascontiguousarray(co[:, :-1])
    norms = np.sqrt(row_squares(x_ms))
    keep = (np.abs(co[:, -1]) <= 0.40) & (0.3 <= norms) & (norms <= 3.0)
    return [(tuple(int(v) for v in m), x_m, float(y_m))
            for m, x_m, y_m in zip(ms[keep], x_ms[keep], co[keep, -1])]


class KappaSetup(NamedTuple):
    chart: SectionChart
    datum: HeteroclinicDatum
    bump: Bump
    x_sequence: tuple[tuple[float, ...], ...]
    claim_steps: tuple[float, ...]
    homoclinic_m: tuple[int, ...]


def kappa_experiment(flow: SuspensionFlow, n_points: int) -> KappaSetup:
    """Configuration whose second returns are dense enough to measure kappa.

    The heteroclinic stable coordinate is tuned so that the bump ball sits
    on a near-crossing of the global unstable leaf of p: an integer vector
    m with small stable coordinate marks a chart point (x_m, -y_m) close to
    the bump center, and the co-rotated displacements A^-j (x_m + delta)
    return to the ball at step j with gap lambda^j y_r, realizing the
    kappa-power law measurably at every scale. The steps j come from
    n_points norms log-spaced over KAPPA_NORM_RANGE, so x_sequence holds at
    most n_points distinct entries, in first-occurrence order. kappa is read off
    one unstable rate, so a non-conformal E^u (xi_min < xi_max) is refused.
    """
    if n_points < 2:
        raise ValueError(f"kappa fit needs n_points >= 2, got {n_points}")
    xi_min, xi = flow.spectral.xi_min, flow.spectral.xi_max
    if xi_min != xi:
        raise ValueError(f"kappa needs a conformal E^u, unstable moduli {xi_min:.6g} to {xi:.6g}")
    chart = SectionChart(flow)
    lam = chart.lam
    homo = homoclinic_vectors(flow)
    if not homo:
        raise ValueError("no homoclinic-adjacent integer vector found")

    candidates = find_heteroclinic_data(chart, KAPPA_Q_PERIOD)
    best = None
    for datum in candidates:
        c_y = lam * datum.y_r
        radius = min(0.05, 0.8 * abs(c_y) * abs(1.0 - lam))
        for m, x_m, y_m in homo:
            e = -y_m - c_y
            if 0.03 * radius <= abs(e) <= 0.30 * radius:
                score = abs(e)
                if best is None or score > best[0]:
                    best = (score, datum, radius, m, x_m, e)
    if best is None:
        raise ValueError("no matching heteroclinic/homoclinic pair found")
    _, datum, radius, m, x_m, _ = best
    datum = make_heteroclinic_datum(chart, datum.q_orbit, datum.q_index, datum.offset)

    direction = x_m / np.linalg.norm(x_m)
    bump = make_bump(chart, datum, radius, KAPPA_AMPLITUDE, direction)

    delta = 0.45 * radius * direction
    target = x_m + delta
    a_inv = np.linalg.inv(chart.a_u)
    # norms that round to the same step j give the same x, which is kept once
    norm_min, norm_max = KAPPA_NORM_RANGE
    steps = dict.fromkeys(
        max(int(round(math.log(np.linalg.norm(target) / nrm) / math.log(xi))), 1)
        for nrm in np.geomspace(norm_max, norm_min, n_points)
    )
    xs = [tuple(float(v) for v in np.linalg.matrix_power(a_inv, j) @ target) for j in steps]
    claim_steps = tuple(float(h) for h in (1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4))
    return KappaSetup(
        chart=chart,
        datum=datum,
        bump=bump,
        x_sequence=tuple(xs),
        claim_steps=claim_steps,
        homoclinic_m=tuple(int(v) for v in m),
    )
