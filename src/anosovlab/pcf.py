"""Temporal distance (simple periodic cycle functionals) and matching kernels.

A quadrilateral (a, b in W^s(a), x in W^u_loc(a)) determines the flow-time
mismatch rho with phi^rho(y) = Hol_{a,b}(x), where Hol slides along stable
leaves between weak-unstable transversals and y is the unstable-leaf point
on the orbit of Hol_{a,b}(x). Two independent computations are provided:

* a closed four-term combination of leaf time adjustments around the
  quadrilateral (series route), and
* the fibers of Hol_{a,b}(x) and y over their common base point, built
  from exact rational corners, as long finite Birkhoff differences along
  exact rational orbits (geometric route).

Their agreement is the package's central dual oracle. Both routes take a
list of quadrilaterals and run it as lockstep batches, and each value is
bit-identical to its quadrilateral run alone. The series route sends all
the leaf adjustments to `SuspensionFlow.time_adjustment` at once. The
geometric route sends its Birkhoff walks to
`SuspensionFlow.birkhoff_exact`, BATCH_ORBITS walks of one direction per
call, and reads each walk's partial sum at its own horizon. The patch
reconstruction batches its chart values the same way and runs its
grid points' Newton solves in lockstep.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGradients, NoIntersection, TruncationInsufficient
from .flow import (
    BATCH_ORBITS, CHART_RADIUS, SuspensionFlow, affine_orbit, affine_step, tail_horizon, wrap_unit,
)
from .roof import RoofFunction, row_products, row_squares
from . import intlinalg, mpspec, util

INDEPENDENCE_CUTOFF = 0.05  # least sv / largest sv a new pair must keep: a well-posed Newton
NEWTON_TOL = 1e-12          # patch Newton stops here, 100x the VALUE_TOL of each PCF value
NEWTON_MAX_STEPS = 60       # chart evaluations per grid point; the bundled grids need at most 6
DISPLACEMENT_SCALE = 0.02   # largest frame coefficient of a drawn quadrilateral or pair draw
GEOMETRIC_TOL = 1e-8        # geometric route: each Birkhoff tail is cut at 0.02 of this
PAIR_BUDGET = 200           # draws the pair search makes before it refuses
PATCH_RADIUS = 0.008        # half-width of the reconstruction grid along each unstable direction

_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's 128-bit LCG multiplier
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


# ---------------------------------------------------------------------------
# seeded draws


def _hashmix(const: int, mult: int):
    """numpy SeedSequence's `hashmix` on 32-bit words: each call xors in the
    running constant, advances it by `mult` and multiplies by the new one."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """numpy SeedSequence's `mix` of two pool words (MIX_MULT_L, MIX_MULT_R)."""
    word = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return word ^ word >> 16


class SeededStream:
    """The uniform draws of `numpy.random.default_rng(seed)`, bit for bit, on Python ints.

    The seed's 32-bit words, least significant first, are hashed into a
    pool of 4 words and then into PCG64's 128-bit state and increment, as
    numpy's SeedSequence does. Each draw steps the LCG and outputs its
    XSL-RR 64-bit word; `random` maps a word to (word >> 11) * 2^-53 and
    `uniform` to lo + (hi - lo) times that. Owning the stream keeps
    `numpy.random` out of set-up, and ties the report bytes to this code:
    NEP 19 keeps numpy's bit streams stable but not its `Generator` methods.
    Any non-negative int seed is taken, those past 2^64 too; a negative one
    raises ValueError and a non-int, None included, TypeError.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A: entropy into the pool
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B: `generate_state(4, uint64)`
        state = [hashmix(pool[i % 4]) for i in range(8)]
        state_hi, state_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        self._inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        self._state = (self._inc + (state_hi << 64 | state_lo)) & _MASK128
        self._next64()

    def _next64(self) -> int:
        self._state = (self._state * _PCG64_MULTIPLIER + self._inc) & _MASK128
        word = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _double(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def random(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), as `Generator.random(n)`."""
        return np.array([self._double() for _ in range(n)])

    def uniform(self, lo: float, hi: float, n: int | None = None):
        """One float in [lo, hi), or n of them as an array, as `Generator.uniform`."""
        lo, span = float(lo), float(hi) - float(lo)
        if n is None:
            return lo + span * self._double()
        return np.array([lo + span * self._double() for _ in range(n)])


# ---------------------------------------------------------------------------
# quadrilaterals


class Quadrilateral(NamedTuple):
    """PCF input data: base corner a, stable displacement, unstable displacement.

    `fiber` is the corner's height above a. No route reads it, since a
    temporal distance is invariant along the flow; it is the `as` column
    of the sample CSV.
    """

    a: tuple[float, ...]
    s_disp: tuple[float, ...]
    u_disp: tuple[float, ...]
    fiber: float = 0.0

    @staticmethod
    def build(flow: SuspensionFlow, a, s_disp, u_disp):
        """Validate displacements against the flow's splitting and chart: one
        quadrilateral, or a list from stacks with one row per quadrilateral,
        each direction's rows checked by one `leaf_part` and one chart test."""
        stacked = np.ndim(a) == 2
        corners, s_rows, u_rows = (np.array(rows, dtype=float).reshape(-1, flow.dim)
                                   for rows in (a, s_disp, u_disp))
        for rows, sub in ((s_rows, "stable"), (u_rows, "unstable")):
            flow.leaf_part(rows, sub)
            if not _in_chart(rows):
                norm = float(np.sqrt(row_squares(rows)).max())
                raise NoIntersection(f"{sub} displacement norm {norm!r} "
                                     f"exceeds chart radius {CHART_RADIUS!r}")
        quads = [Quadrilateral(a=tuple(corner), s_disp=tuple(s), u_disp=tuple(u))
                 for corner, s, u in zip(corners.tolist(), s_rows, u_rows)]
        return quads if stacked else quads[0]


def pair_quads(flow: SuspensionFlow, pairs, points) -> list[Quadrilateral]:
    """The quadrilateral of each PCF pair (a, s_disp) at each base point, point by point.

    Its unstable displacement is the wrapped offset of the point from a; one
    `leaf_part` checks every offset, so a point off a pair's leaf raises OffLeaf.
    """
    corners = np.array([a for a, _ in pairs], dtype=float)
    offsets = wrap_unit(np.reshape(points, (-1, 1, flow.dim)) - corners)
    u_disps = flow.leaf_part(offsets.reshape(-1, flow.dim), "unstable")
    return [
        Quadrilateral(a=a, s_disp=tuple(s_disp), u_disp=tuple(u))
        for (a, s_disp), u in zip(pairs * len(offsets), u_disps)
    ]


def _in_chart(disp: np.ndarray) -> bool:
    """The one chart test of a leaf displacement, or of every row of a stack,
    for `build` and the geometric route."""
    return bool((np.sqrt(row_squares(disp)) <= CHART_RADIUS).all())


def sample_quadrilaterals(flow: SuspensionFlow, n: int, seed: int) -> list[Quadrilateral]:
    """Deterministic random quadrilaterals with displacements in the frames,
    every draw checked at once by one `Quadrilateral.build`.

    The draws come from `SeededStream(seed)`, which equals numpy's
    `default_rng(seed)`: per quadrilateral a base point, a fiber height
    under the roof, and stable then unstable frame coefficients."""
    rng = SeededStream(seed)
    s_frame = flow.stable_frame()
    u_frame = flow.unstable_frame()
    bases, fibers, s_disps, u_disps = [], [], [], []
    for _ in range(n):
        bases.append(rng.random(flow.dim))
        fibers.append(rng.uniform(0.0, flow.roof(bases[-1])))
        s_disps.append(s_frame @ (rng.uniform(-1.0, 1.0, s_frame.shape[1]) * DISPLACEMENT_SCALE))
        u_disps.append(u_frame @ (rng.uniform(-1.0, 1.0, u_frame.shape[1]) * DISPLACEMENT_SCALE))
    quads = Quadrilateral.build(flow, np.reshape(bases, (n, flow.dim)), s_disps, u_disps)
    return [quad._replace(fiber=fiber) for quad, fiber in zip(quads, fibers)]


# ---------------------------------------------------------------------------
# temporal distance, series route


def temporal_distance_series(flow: SuspensionFlow, quads) -> list[float]:
    """Signed combination of four leaf time adjustments around each quadrilateral.

    With T_s(x -> y) and T_u(x -> y) the stable/unstable adjustments,

        rho = T_u(a -> x) + T_s(x -> Hol(x)) - T_s(a -> b) - T_u(b -> y),

    which is the fiber gap between Hol_{a,b}(x) and y in the defining
    equation. Vanishes identically when either displacement is zero or the
    roof is constant. All 4 n adjustments go to the flow as one batch; the
    values come back one per quadrilateral, in order.
    """
    requests = []
    for quad in quads:
        alpha = np.asarray(quad.a)
        w = np.asarray(quad.s_disp)
        u = np.asarray(quad.u_disp)
        requests += [
            (alpha, alpha + u, "unstable"),
            (alpha + u, alpha + u + w, "stable"),
            (alpha, alpha + w, "stable"),
            (alpha + w, alpha + w + u, "unstable"),
        ]
    values = iter(flow.time_adjustment(requests))
    return [
        (t_u_ax + t_s_xh) - (t_s_ab + t_u_by)
        for t_u_ax, t_s_xh, t_s_ab, t_u_by in zip(values, values, values, values)
    ]


# ---------------------------------------------------------------------------
# temporal distance, geometric route


def temporal_distance_geometric(flow: SuspensionFlow, quads) -> list[float]:
    """Fiber gap between Hol_{a,b}(x) and y for each quadrilateral, from exact corners.

    The displacements w and u are projected onto E^s and E^u by the exact
    integer projector of `mpspec` and rounded to 2^-160, so the base
    corners b = a + w, x = a + u and Hol_{a,b}(x) = x + w = b + u = y are
    integer numerators over one den, the larger of 2^160 and that of the
    floats a; the last two are one point. Leaf fibers come from
    finite Birkhoff differences along exact rational orbits (forward for
    stable leaves, backward for unstable ones), with `tail_horizon` horizons
    so tails sit well under GEOMETRIC_TOL. The forward horizon takes
    |L^n w| = lambda^n |w|, which holds because every flow has dim E^s = 1.

    Every quadrilateral is checked before any orbit is walked: one whose
    data leave the chart raises NoIntersection, and one whose horizon would
    pass MAX_HORIZON raises TruncationInsufficient, for the whole batch.
    The walks of each direction run in `birkhoff_exact` batches of
    BATCH_ORBITS starts, each walked to the batch's longest horizon and
    read at its own, so each value is bit-identical to the quadrilateral's
    walks run alone. Returns one value per quadrilateral.
    """
    target = 0.02 * GEOMETRIC_TOL
    lip = flow.roof.poly.lipschitz_bound()
    split = mpspec.splitting(flow.base)
    alphas, den = intlinalg.dyadic([quad.a for quad in quads])
    big = max(den, mpspec.DYADIC_DEN)   # both powers of two, so their lcm
    walks = {False: [], True: []}   # backward -> (start over big, horizon) of each walk

    def lifted(nums, over: int) -> list[int]:
        return [v * (big // over) for v in nums]

    ws = np.array([quad.s_disp for quad in quads], dtype=float).reshape(-1, flow.dim)
    us = np.array([quad.u_disp for quad in quads], dtype=float).reshape(-1, flow.dim)
    if not (_in_chart(ws) and _in_chart(us)):
        raise NoIntersection("quadrilateral displacements exceed the chart radius")
    for w, u, alpha in zip(ws, us, alphas):
        n_fwd = tail_horizon(lip, flow.spectral.lam, max(np.linalg.norm(w), 1e-6), target)
        n_bwd = tail_horizon(lip, 1.0 / flow.spectral.xi_min, max(np.linalg.norm(u), 1e-6), target)

        # Exact hyperbolic orbits amplify any off-leaf defect of the inputs by
        # lambda^-n backward; project the displacements onto their subspaces
        # with the exact integer projector, rounded to 2^-160, so corner points
        # share leaves to ~1e-48 and the long Birkhoff differences stay clean.
        w_ex = lifted(*split.project(w, "stable"))
        u_ex = lifted(*split.project(u, "unstable"))
        alpha = lifted(alpha, den)
        beta = [a + b for a, b in zip(alpha, w_ex)]    # base of b on W^s(a)
        zeta = [a + b for a, b in zip(alpha, u_ex)]    # base of x on W^u(a)
        # base of Hol_{a,b}(x) on W^s(x), and of y on W^u(b): x + w = b + u
        hol = [a + b for a, b in zip(zeta, w_ex)]
        # forward sums over k < n_fwd, backward sums over k = 1..n_bwd
        walks[False] += [(beta, n_fwd), (alpha, n_fwd), (hol, n_fwd), (zeta, n_fwd)]
        walks[True] += [(alpha, n_bwd), (zeta, n_bwd), (beta, n_bwd), (hol, n_bwd)]
    sums = {backward: np.empty(len(plan)) for backward, plan in walks.items()}
    for backward, plan in walks.items():
        for lo in range(0, len(plan), BATCH_ORBITS):
            starts, horizons = zip(*plan[lo:lo + BATCH_ORBITS])
            partial = flow.birkhoff_exact(starts, big, max(horizons), backward=backward)
            # each walk's sum is its partial sum at its own horizon
            sums[backward][lo:lo + len(starts)] = partial[
                np.arange(len(starts)), np.array(horizons) - 1]
    (fwd_b, fwd_a, fwd_hol, fwd_x), (bwd_a, bwd_x, bwd_b, bwd_hol) = (
        sums[backward].reshape(-1, 4).T for backward in (False, True))
    fiber_b = fwd_b - fwd_a
    fiber_x = bwd_a - bwd_x
    fiber_hol = fiber_x + (fwd_hol - fwd_x)
    fiber_y = fiber_b + (bwd_b - bwd_hol)
    return (fiber_hol - fiber_y).tolist()


# ---------------------------------------------------------------------------
# PCF gradients in the unstable parameter


def pcf_gradient(flow: SuspensionFlow, quads) -> np.ndarray:
    """Derivatives of the temporal distance in the unstable parameter, one row per quad.

    A row holds the covector components with respect to the columns of the
    unstable frame, at the quadrilateral point x = a + u_disp. Term-wise
    differentiation of the series route gives a two-sided sum of paired
    gradient differences: `SuspensionFlow.stable_gradient` forward,
    `unstable_gradient` backward. The forward side converges only under the
    bunching condition lambda * xi_max < 1, which holds automatically for
    volume-preserving codimension-one data with dim E^u >= 2; a constant
    roof has the zero gradient whatever the bunching.

    Every displacement is checked before any series runs. All forward
    halves walk one lockstep orbit and all backward halves another, so each
    row is bit-identical to its quadrilateral run alone.
    """
    quads = list(quads)
    shape = (len(quads), flow.dim)
    w = np.reshape(np.array([quad.s_disp for quad in quads], dtype=float), shape)
    u = np.reshape(np.array([quad.u_disp for quad in quads], dtype=float), shape)
    flow.leaf_part(w, "stable")
    flow.leaf_part(u, "unstable")

    poly = flow.roof.poly
    if poly.is_constant() or not quads:
        return np.zeros((len(quads), flow.dim_unstable))
    corners = np.array([quad.a for quad in quads], dtype=float)
    starts, den = intlinalg.dyadic(corners + u)
    totals = flow.stable_gradient(starts, den, row_products(flow.spectral.proj_s, w))
    # backward gaps L^-n w mod 1 from n = 1, exact and wrapped, one segment per call
    inv, zero = flow.inv_entries, (0,) * flow.dim
    gaps = affine_orbit(inv, zero, *affine_step(inv, zero, *intlinalg.dyadic(w)), centred=True)
    return flow.unstable_gradient(
        starts, den,
        lambda points, active: poly.gradient_diff_rows(
            points, np.reshape(next(gaps)[active], points.shape)),
        totals,
    )


# ---------------------------------------------------------------------------
# matching kernels


class MatchingKernelReport(NamedTuple):
    base_point: tuple[float, ...]
    gradients: tuple[tuple[float, ...], ...]   # rows in unstable-frame coords
    kernel_dim: int
    kernel_basis: np.ndarray                   # ambient d x kernel_dim


def matching_kernel_dimension(
    flow: SuspensionFlow,
    base_point,
    pairs: list[tuple[tuple, tuple]],
) -> MatchingKernelReport:
    """Common kernel of the PCF differentials at base_point.

    Each pair (a, s_disp) of a base corner and a stable displacement
    defines a PCF on W^u_loc(a); base_point must lie on that leaf, and the
    gradient is taken at its unstable offset from a.
    """
    if not pairs:
        raise ValueError("at least one pair is required")
    point = np.asarray(base_point, dtype=float)
    grad_rows = pcf_gradient(flow, pair_quads(flow, pairs, [point]))
    kern = util.kernel_basis(grad_rows)
    kernel_dim = kern.shape[1]
    ambient = flow.unstable_frame() @ kern if kernel_dim else np.zeros((flow.dim, 0))
    return MatchingKernelReport(
        base_point=tuple(float(v) for v in point),
        gradients=tuple(tuple(float(v) for v in row) for row in grad_rows),
        kernel_dim=kernel_dim,
        kernel_basis=ambient,
    )


def find_independent_pairs(
    flow: SuspensionFlow,
    base_point,
    count: int,
    seed: int,
) -> list[tuple[tuple, tuple]]:
    """Seeded random search for PCF pairs with independent gradients.

    Draws base corners a on the unstable leaf through base_point, reduced
    into [0, 1), and stable displacements, keeping draws that increase the
    gradient stack's rank (smallest singular value relative to the largest
    above the cutoff). The draws come in rounds of as many as are still
    missing, each round's gradients as one `pcf_gradient` batch, and are
    tested in draw order, so the pairs are those of one draw at a time.
    count must lie in [1, dim E^u], since no more gradient rows than that
    can be independent. Raises DegenerateGradients when PAIR_BUDGET draws
    find fewer than count. The draws come from `SeededStream(seed)`, which
    equals numpy's `default_rng(seed)`.
    """
    if not 1 <= count <= flow.dim_unstable:
        raise ValueError(f"count must lie in [1, {flow.dim_unstable}] (dim E^u), got {count}")
    rng = SeededStream(seed)
    u_frame = flow.unstable_frame()
    s_frame = flow.stable_frame()
    point = np.asarray(base_point, dtype=float)
    chosen: list[tuple[tuple, tuple]] = []
    rows: list[np.ndarray] = []
    drawn = 0
    while drawn < PAIR_BUDGET:
        draws = []
        for _ in range(min(count - len(chosen), PAIR_BUDGET - drawn)):
            c = rng.uniform(-1.0, 1.0, u_frame.shape[1]) * DISPLACEMENT_SCALE
            s_coef = rng.uniform(-1.0, 1.0, s_frame.shape[1]) * DISPLACEMENT_SCALE
            a = tuple(float(v) for v in (point - u_frame @ c) % 1.0)
            s_disp = tuple(float(v) for v in s_frame @ s_coef)
            draws.append(Quadrilateral(a=a, s_disp=s_disp, u_disp=tuple(u_frame @ c)))
        drawn += len(draws)
        for quad, grad in zip(draws, pcf_gradient(flow, draws)):
            sv = np.linalg.svd(np.array(rows + [grad]), compute_uv=False)
            if sv[-1] > INDEPENDENCE_CUTOFF * sv[0] and sv[0] > 1e-12:
                rows.append(grad)
                chosen.append((quad.a, quad.s_disp))
                if len(chosen) == count:
                    return chosen
    raise DegenerateGradients(
        f"found only {len(chosen)} independent gradients within {PAIR_BUDGET} draws"
    )


# ---------------------------------------------------------------------------
# planted conjugacies


class TranslationConjugacy(NamedTuple):
    """Torus translation lifted to the suspension: (x, s) -> (x + v, s)."""

    v: tuple[Fraction, ...]

    def vector(self) -> np.ndarray:
        return np.array([float(c) for c in self.v])

    def apply_base(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) + self.vector()) % 1.0

    def invert_base(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.vector()) % 1.0


def translate_flow(flow: SuspensionFlow, v) -> tuple[SuspensionFlow, TranslationConjugacy]:
    """Pushforward of the suspension under the torus translation by v.

    The conjugated base map is x -> Lx + (I - L)v and the roof shifts to
    roof(x - v), so h(x, s) = (x + v, s) intertwines the flows exactly.
    """
    vfr = tuple(Fraction(c) for c in v)
    if len(vfr) != flow.dim:
        raise ValueError(f"translation has {len(vfr)} entries, the base map needs {flow.dim}")
    lv = intlinalg.mat_vec(flow.base.entries, vfr)
    translation = tuple((a - b + c) % 1 for a, b, c in zip(vfr, lv, flow.translation))
    shifted = RoofFunction(flow.roof.poly.shift([float(c) for c in vfr]))
    pushed = SuspensionFlow(flow.base, shifted, translation=translation)
    return pushed, TranslationConjugacy(v=vfr)


def conjugacy_invariance_check(
    flow1: SuspensionFlow,
    flow2: SuspensionFlow,
    conjugacy: TranslationConjugacy,
    quads: list[Quadrilateral],
) -> float:
    """Max |rho_1(quad) - rho_2(image quad)| over the supplied quadrilaterals."""
    images = [quad._replace(a=tuple(conjugacy.apply_base(quad.a))) for quad in quads]
    worst = 0.0
    for rho1, rho2 in zip(temporal_distance_series(flow1, quads),
                          temporal_distance_series(flow2, images)):
        worst = max(worst, abs(rho1 - rho2))
    return worst


# ---------------------------------------------------------------------------
# local conjugacy reconstruction on an unstable patch


class PatchReconstruction(NamedTuple):
    grid_offsets: np.ndarray        # (n, dim_u) coordinates in the unstable frame
    recovered: np.ndarray           # (n, d) recovered h^{-1} images (base points)
    sup_error: float


def _pcf_map(flow, pairs, point_bases) -> np.ndarray:
    """(points, pairs) array of the PCF chart at each base point, in one batch."""
    values = temporal_distance_series(flow, pair_quads(flow, pairs, point_bases))
    return np.reshape(values, (len(point_bases), len(pairs)))


def reconstruct_conjugacy_patch(
    flow1: SuspensionFlow,
    flow2: SuspensionFlow,
    conjugacy: TranslationConjugacy,
    kernel: MatchingKernelReport,
    pairs: list[tuple[tuple, tuple]],
    grid_n: int,
) -> PatchReconstruction:
    """Invert the PCF chart to recover the conjugacy on an unstable patch.

    With P1 = (rho^1_1, ..., rho^1_n) built from n = dim E^u independent
    pairs at the kernel report's base point (any other number of pairs is
    refused with DegenerateGradients) and P2 the matched chart for the conjugated
    flow, the map P1^{-1} o P2 is evaluated on a grid of the unstable patch
    through h(base_point), grid_n points of half-width PATCH_RADIUS along
    each axis, and compared against the known inverse translation. The
    Newton Jacobian is the report's gradient rows, so the report must come
    from flow1 and the same pairs.

    The grid points' Newton solves run in lockstep: each iteration
    evaluates the chart at every point still moving in one batch, and each
    point keeps its own iterates, stop test and solve. A point whose
    residual stays at or above NEWTON_TOL for NEWTON_MAX_STEPS evaluations
    raises TruncationInsufficient.
    """
    n_u = flow1.dim_unstable
    if len(pairs) != n_u:
        raise DegenerateGradients(
            f"need {n_u} pairs for a {n_u}-dimensional patch, got {len(pairs)}")
    jac = np.array(kernel.gradients)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] <= util.KERNEL_CUTOFF * max(sv[0], 1e-30) or sv[0] < 1e-12:
        raise DegenerateGradients(
            f"PCF gradients are not independent at the base point (sv={sv})"
        )

    pairs2 = [(tuple(conjugacy.apply_base(a)), s_disp) for a, s_disp in pairs]
    u_frame = flow1.unstable_frame()
    origin = np.asarray(kernel.base_point)
    base2 = conjugacy.apply_base(origin)

    axes = [np.linspace(-PATCH_RADIUS, PATCH_RADIUS, grid_n)] * n_u
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=1)

    targets = [(base2 + u_frame @ c) % 1.0 for c in offsets]
    values2 = _pcf_map(flow2, pairs2, targets)
    # Newton with the frozen Jacobian: the chart is near-affine on the patch
    coefs = np.zeros((len(offsets), n_u))
    residuals = np.zeros(len(offsets))
    moving = list(range(len(offsets)))
    for _ in range(NEWTON_MAX_STEPS):
        values = _pcf_map(flow1, pairs, [(origin + u_frame @ coefs[k]) % 1.0 for k in moving])
        still = []
        for k, row in zip(moving, values):
            resid = row - values2[k]
            residuals[k] = np.linalg.norm(resid)
            if residuals[k] < NEWTON_TOL:
                continue
            coefs[k] = coefs[k] - np.linalg.solve(jac, resid)
            still.append(k)
        moving = still
        if not moving:
            break
    if moving:
        k = moving[0]
        raise TruncationInsufficient(
            f"patch Newton at grid offset {offsets[k].tolist()} did not reach "
            f"{NEWTON_TOL:g} within {NEWTON_MAX_STEPS} steps; last residual {residuals[k]:.3g}"
        )
    recovered = np.array([(origin + u_frame @ coef) % 1.0 for coef in coefs])
    expected = np.array([conjugacy.invert_base(target) for target in targets])
    sup_error = float(
        max(
            np.linalg.norm(wrap_unit(r - e))
            for r, e in zip(recovered, expected)
        )
    )
    return PatchReconstruction(
        grid_offsets=offsets, recovered=recovered, sup_error=sup_error,
    )
