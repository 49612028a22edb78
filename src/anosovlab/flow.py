"""Suspension-flow kinematics over a hyperbolic toral automorphism.

The mapping torus is represented by its fundamental domain
{(x, s): 0 <= s < roof(x)} with the identification (x, roof(x)+s) ~ (Lx, s).
Points are base points: a leaf's fiber offset does not depend on the fiber.
Strong stable/unstable leaves through a point are graphs over the base
subspaces; their fiber offsets come from convergent time-adjustment series
with geometric tail control. Every tail-certified series of the package sums
through `certified_sums`, which sums a lockstep batch of series, holds the
one term cap and forms every tail as a next-term bound over (1 - rate);
each series' closure draws its own orbit rows. `tail_horizon` solves that
tail for the number of terms. `walk_states` steps every float recurrence
of a segment by a tuple of matrices, in place. One `time_adjustment` call
sums the leaf series of both directions as one batch, each direction on
its own orbit, which has one row per distinct start, while each distinct
gap is walked once; the PCF gradient weights are walked once per flow and
direction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import intlinalg
from .errors import OffLeaf, TruncationInsufficient
from .roof import RoofFunction, row_products, row_squares
from .spectral import IntegerMatrix, SpectralData, spectral_data

LEAF_TOL = 1e-12       # largest transverse part `leaf_part` accepts; on-leaf inputs show ~2e-16

# Tail thresholds of the certified series (absolute bound on what is left
# out of the returned sum), the term cap they all share, and the length of
# the orbit segments that are walked and evaluated in one batch.
VALUE_TOL = 1e-14      # leaf adjustments and graph times: ~50 ulps of an O(1) fiber time
GRADIENT_TOL = 1e-15   # gradient series: a decade lower, as they feed 1e-9 rank cutoffs and Newton
RETURN_TOL = 1e-13     # bump return series: a decade under the 1e-12 noise floor of the kappa fit
MAX_TERMS = 5000       # the bundled configs need at most ~260 terms
SEGMENT = 32           # points per orbit matmul and roof evaluation: amortizes numpy calls; overshoot < 32
BATCH_ORBITS = 32      # orbits per return-series or geometric-route walk, and starts, gaps or
                       # series per leaf-series factor block: +0.3 MB RSS over 2 orbits
MAX_HORIZON = 500      # longest geometric-route walk: a longer tail is refused, not cut short
CHART_RADIUS = 0.05    # largest leaf displacement a quadrilateral accepts
BUNCHING_CAP = 0.98    # largest forward gradient rate lambda * xi_max: keeps 1 / (1 - q) <= 50


def certified_sums(segment_terms, tol: float, totals, rate) -> tuple[list, list[int]]:
    """Sum tail-certified series in lockstep, one segment of every open series per round.

    Series k continues totals[k] (zeros of the term shape, or the forward
    half of a two-sided series). Each round calls segment_terms(active),
    active being the open series in order. The closure draws the next
    segment of its own orbit rows once per call, rows in active order (a
    start's exact orbit, or a group of points walked together), and draws
    nothing from an orbit that has no open series. It returns one row of
    terms and one row of bounds on each next term (or one row for all) per
    open series, as arrays. With rate, the geometric rate of each series
    (a float or one per series), the tail after a term is its
    bound / (1 - rate). Series k adds its terms left to right, up to its
    first tail under tol, then leaves the batch; one still open after
    MAX_TERMS terms raises TruncationInsufficient. A round is one array
    pass: one cumsum of [running total | terms], which adds left to right
    as a loop over the terms would, read at each row's stop column.
    Returns the totals and the number of terms each series took, as lists.
    """
    totals = np.array(totals, dtype=float)
    rates = np.broadcast_to(rate, len(totals))
    counts = np.zeros(len(totals), dtype=int)
    active = np.arange(len(totals))
    used = 0
    while active.size:
        terms, bounds = segment_terms(active)
        tails = bounds / (1.0 - rates[active, None])   # each bounds all that follows its term
        limit = min(tails.shape[1], MAX_TERMS - used)
        below = tails[:, :limit] < tol
        stops = below.any(axis=1)
        taken = np.where(stops, below.argmax(axis=1) + 1, limit)   # terms each row adds
        sums = np.cumsum(np.concatenate(
            [totals[active][:, None], terms[:, :limit]], axis=1), axis=1)
        totals[active] = sums[np.arange(len(active)), taken]
        counts[active[stops]] = used + taken[stops]
        used += limit
        active = active[~stops]
        if active.size and used >= MAX_TERMS:
            raise TruncationInsufficient(
                f"series did not meet its tail bound {tol:g} within {MAX_TERMS} terms")
    return totals.tolist(), counts.tolist()


def tail_horizon(lip: float, rate: float, scale: float, target: float) -> int:
    """Terms a walk with term k under lip * scale * rate^k needs: 2 past the least n
    whose tail lip * scale * rate^n / (1 - rate) is under target, and at least 8."""
    if lip == 0.0 or scale == 0.0:
        return 1
    need = target * (1.0 - rate) / (lip * scale)
    n = int(np.ceil(np.log(need) / np.log(rate))) + 2
    if n > MAX_HORIZON:
        raise TruncationInsufficient(
            f"geometric route needs a horizon of {n} steps, above the cap {MAX_HORIZON}")
    return max(n, 8)


def walk_states(state, matrices, length: int) -> tuple[np.ndarray, np.ndarray]:
    """A stacked linear recurrence over one segment, one row per series: (states, nexts).

    A row of state is a vector, or a matrix on the last two axes. A step
    applies the matrices in turn, each shared by every row or an (m, k, k)
    stack with one per row, by one `np.matmul` each, so a vector row makes
    the gemv of `row_products` and every row the BLAS calls it makes alone.
    Point j sees states[:, j], and nexts[:, j] is the state of point j + 1,
    so the bound after term j reads nexts[:, j] and nexts[:, -1] starts the
    next segment. Both are views of one (m, length + 1, ...) buffer that
    the walk writes in place.
    """
    vectors = state.ndim == 2
    if vectors:
        state = state[..., None]
    walk = np.empty((len(state), length + 1, *state.shape[1:]))
    walk[:, 0] = state
    between = [np.empty(state.shape) for _ in matrices[1:]]
    for j in range(length):
        current = walk[:, j]
        for matrix, out in zip(matrices, [*between, walk[:, j + 1]]):
            current = np.matmul(matrix, current, out=out)
    if vectors:
        walk = walk[..., 0]
    return walk[:, :length], walk[:, 1:]


def _distinct(ids, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of an index array into range(n), and each entry's place."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen), np.cumsum(seen)[ids] - 1


def _over_lcm(offset, starts, den: int):
    """The starts and the offset as numerators over D, the lcm of den and the
    offset's denominators: (rows, shift, D)."""
    lift = math.lcm(den, *(v.denominator for v in offset)) // den
    den *= lift
    shift = [v.numerator * (den // v.denominator) for v in offset]
    return [[v * lift for v in start] for start in starts], shift, den


def affine_step(entries, offset, starts, den: int):
    """One exact step of x -> A x + c from m starts over den: (rows, D).

    The images are numerator rows over D, the lcm of den and the offset's
    denominators, not reduced mod 1: they only ever start a walk, and
    `intlinalg.orbit_segments` reduces every start. With the inverse map,
    they start a backward orbit at F^-1 x.
    """
    nums, shift, den = _over_lcm(offset, starts, den)
    return [[v + c for v, c in zip(intlinalg.mat_vec(entries, n), shift)] for n in nums], den


def affine_orbit(entries, offset, starts, den: int, centred: bool = False):
    """Exact orbits of m starts under x -> A x + c mod 1, in lockstep.

    The starts are numerator rows over den, in any range, and c is
    rational. The points of `intlinalg.orbit_segments` over D, the lcm of
    den and the offset's denominators, every start included, are reduced
    into [0, 1), or into [-1/2, 1/2) when centred, and yielded as
    (m, SEGMENT, d) float arrays of n / D, so every float is the correctly
    rounded rational point, whatever else is in the batch.
    """
    nums, shift, den = _over_lcm(offset, starts, den)
    for block in intlinalg.orbit_segments(entries, shift, nums, den, SEGMENT, centred):
        yield intlinalg.segment_floats(block, den)


def wrap_unit(v: np.ndarray) -> np.ndarray:
    """Componentwise representative in [-1/2, 1/2)."""
    return (np.asarray(v, dtype=float) + 0.5) % 1.0 - 0.5


class SuspensionFlow:
    """Suspension of a hyperbolic toral automorphism under a positive roof.

    The base map may carry a rational translation part (x -> Lx + c mod 1),
    which is how pushforwards under torus translations are represented; the
    linear part alone drives all spectral data. A linear part with dim E^s
    other than 1 raises NotCodimensionOne here, before any series runs.
    """

    def __init__(
        self,
        base: IntegerMatrix,
        roof: RoofFunction,
        translation=None,
    ):
        if roof.dim != base.dim:
            raise ValueError("roof dimension does not match the base map")
        translation = (0,) * base.dim if translation is None else tuple(translation)
        if len(translation) != base.dim:
            raise ValueError(
                f"translation has {len(translation)} entries, the base map needs {base.dim}"
            )
        self.base = base
        self.roof = roof
        self.translation = tuple(Fraction(v) for v in translation)
        self.spectral: SpectralData = spectral_data(base)
        # geometric rates: lambda * xi_max for the forward gradient half, and
        # 1 / xi_min for every backward series (unstable leaves, gradient half)
        self._q_stable = self.spectral.lam * self.spectral.xi_max
        self._q_unstable = 1.0 / self.spectral.xi_min
        self.lin = base.as_array()
        self.inv_entries = base.inverse_entries()
        self.lin_inv = np.array(self.inv_entries, dtype=float)
        # F^-1 x = L^-1 x - L^-1 c, so the backward orbit is affine as well
        self._inv_translation = tuple(
            -v % 1 for v in intlinalg.mat_vec(self.inv_entries, self.translation)
        )
        self._weights = {}   # direction -> the PCF gradient weights walked so far, and their bounds

    # -- base-map plumbing ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def dim_unstable(self) -> int:
        return self.spectral.unstable_basis.shape[1]

    def unstable_frame(self) -> np.ndarray:
        return self.spectral.unstable_basis.copy()

    def stable_frame(self) -> np.ndarray:
        return self.spectral.stable_basis.copy()

    # Exact rational orbit iteration. Floating-point orbits of a hyperbolic
    # map amplify rounding noise exponentially (forward in the unstable
    # directions, backward in the stable one), which would poison long
    # adjustment series; exact points (numerators over one den) iterate
    # exactly and their denominators never grow because the matrix is
    # integral. Every series walks `exact_orbit`; the Fraction maps below
    # are its reference.

    def base_apply_exact(self, pt: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        image = intlinalg.mat_vec(self.base.entries, pt)
        return tuple((v + c) % 1 for v, c in zip(image, self.translation))

    def base_apply_inv_exact(self, pt: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        shifted = [v - c for v, c in zip(pt, self.translation)]
        return tuple(v % 1 for v in intlinalg.mat_vec(self.inv_entries, shifted))

    def exact_orbit(self, starts, den: int, backward: bool = False):
        """Float points of the exact orbits of m starts over den, in lockstep.

        Forward: x, F x, F^2 x, ... Backward: F^-1 x, F^-2 x, ... (the
        start left out, as in every backward series), walked from the exact
        preimage F^-1 x. Yields (m, SEGMENT, d) arrays, one orbit segment of
        each of the m starts.
        """
        if not backward:
            return affine_orbit(self.base.entries, self.translation, starts, den)
        entries, offset = self.inv_entries, self._inv_translation
        return affine_orbit(entries, offset, *affine_step(entries, offset, starts, den))

    def birkhoff_exact(self, starts, den: int, n: int, backward: bool = False) -> np.ndarray:
        """Roof Birkhoff partial sums along the exact orbits of a batch of starts over den.

        An (m, n) array, one row per start, in order, each added left to
        right: column j holds forward sum_{k=0}^{j} roof(F^k x), backward
        sum_{k=1}^{j+1} roof(F^-k x), each start reduced by the walk, so
        column n - 1 is the n-term sum. The orbits are walked in lockstep
        and evaluated in one call per segment, so each sum is
        bit-identical whatever else is in the batch and in what order.
        """
        values = np.empty((len(starts), n))
        orbit = self.exact_orbit(starts, den, backward)
        walked = 0
        while walked < n:
            rows = next(orbit)[:, :n - walked]
            length = rows.shape[1]
            values[:, walked:walked + length] = np.reshape(
                self.roof.poly.evaluate_rows(rows.reshape(-1, self.dim)), rows.shape[:2])
            walked += length
        return np.cumsum(values, axis=1)   # adds left to right

    # -- leaf machinery ----------------------------------------------------------

    def leaf_part(self, v, direction: str) -> np.ndarray:
        """The part of a base displacement, or of each row of a stack, along its `direction` leaf.

        The package's one leaf test: each row is split in the spectral
        frame with one `row_products` gemv per row (bit-identical to the
        product of that row alone), and a transverse part whose norm is not
        within LEAF_TOL, NaN and infinity included, raises OffLeaf, which
        names the largest one. Returns the parts in the shape of v.
        """
        if direction not in ("stable", "unstable"):
            raise ValueError("direction must be 'stable' or 'unstable'")
        spectral, n_u = self.spectral, self.dim_unstable
        v = np.asarray(v, dtype=float)
        coords = row_products(spectral.frame_inv, np.atleast_2d(v))
        vu = row_products(spectral.frame[:, :n_u], coords[:, :n_u])
        vs = row_products(spectral.frame[:, n_u:], coords[:, n_u:])
        part, transverse = (vs, vu) if direction == "stable" else (vu, vs)
        norm = math.sqrt(row_squares(transverse).max(initial=0.0))
        if not norm <= LEAF_TOL:   # a NaN or infinite row fails too
            raise OffLeaf(f"{direction} displacement has transverse part {norm:.2e}")
        return part.reshape(v.shape)

    def time_adjustment(self, requests) -> list[float]:
        """Fiber offsets putting (y, offset) on the strong leaf of (x, 0).

        Takes a sequence of (x, y, direction) requests and returns one
        offset per request, in request order:

        stable:   offset = sum_{n>=0} roof(L^n y) - roof(L^n x); forward flow
                  distance between (x, 0) and (y, offset) then tends to 0.
        unstable: offset = sum_{n>=1} roof(L^-n x) - roof(L^-n y), the
                  backward-asymptotic analogue.

        Every direction is checked, then every displacement by one
        `leaf_part` call per direction, before any series runs; a zero
        displacement or a constant roof gives 0.0. The requests are read
        in one array pass, each row with the same float operations as it
        has alone. Identical requests share one series, and series of one
        direction share the orbit row of an equal start and the gap walk of
        an equal gap. The series of both directions run as one lockstep
        batch (see `_leaf_series`), so each
        value is bit-identical whatever else is in the batch and in what
        order.
        """
        rows = {"stable": [], "unstable": []}   # the request indices of each direction
        for i, (_, _, direction) in enumerate(requests):
            if direction not in ("stable", "unstable"):
                raise ValueError("direction must be 'stable' or 'unstable'")
            rows[direction].append(i)
        values = [0.0] * len(requests)
        if not requests:
            return values
        xs = np.array([x for x, _, _ in requests], dtype=float) % 1.0
        ys = np.array([y for _, y, _ in requests], dtype=float) % 1.0
        deltas = wrap_unit(ys - xs)
        squares = row_squares(deltas)   # zero exactly when the row's norm is
        for direction, indices in rows.items():
            self.leaf_part(deltas[indices], direction)
        if self.roof.poly.is_constant():
            return values
        series = {}   # (start, gap) keys -> requests; a key is (direction, row bytes)
        for direction, indices in rows.items():
            for i in indices:
                if squares[i] != 0.0:
                    key = (direction, xs[i].tobytes()), (direction, deltas[i].tobytes())
                    series.setdefault(key, []).append(i)
        if series:
            starts, gaps = {}, {}   # the distinct keys, numbered in first use, stable first
            start_of = np.array([starts.setdefault(start, len(starts)) for start, _ in series])
            gap_of = np.array([gaps.setdefault(gap, len(gaps)) for _, gap in series])
            sums = self._leaf_series(list(starts), list(gaps), start_of, gap_of)
            for value, shared in zip(sums, series.values()):
                for i in shared:
                    values[i] = value
        return values

    def walk_gaps(self, gaps, direction: str, length: int) -> tuple[np.ndarray, np.ndarray]:
        """`walk_states` of stacked leaf gaps, stepped as proj @ (L^{+-1} @ g) per row: the
        re-projection stops float noise in the expanding complement from compounding."""
        if direction == "stable":
            return walk_states(gaps, (self.lin, self.spectral.proj_s), length)
        return walk_states(gaps, (self.lin_inv, self.spectral.proj_u), length)

    def _leaf_series(self, starts, gaps, start_of, gap_of) -> list[float]:
        """The leaf series of both directions, summed by `certified_sums` as one batch.

        Series k starts at starts[start_of[k]] with gap gaps[gap_of[k]], both
        distinct (direction, row bytes) keys, stable first. Its term
        roof(x_n + g_n) - roof(x_n) is an orbit factor, set by its start,
        times a gap factor, set by its gap (`TrigPolynomial.orbit_factors`),
        so a round computes each once per distinct open start or gap: each
        direction's exact orbit has one row per start, and a round draws a
        block of each orbit that owns an open start, and of no other. The
        open gaps advance by one `walk_states` call on per-row step and
        projection stacks, the unstable ones after one step back. The
        factors, and the products that pair them per series, run in blocks
        of BATCH_ORBITS rows. Each series has its own sign and rate, and its
        next term is at most lip times its next gap.
        """
        n_starts, n_gaps = (sum(direction == "stable" for direction, _ in keys)
                            for keys in (starts, gaps))
        # the float rows, read back from their key bytes
        starts, gaps = (np.frombuffer(b"".join(row for _, row in keys)).reshape(-1, self.dim)
                        for keys in (starts, gaps))
        spectral, poly = self.spectral, self.roof.poly
        forward = np.arange(len(gaps)) < n_gaps
        steps = np.where(forward[:, None, None], self.lin, self.lin_inv)
        projs = np.where(forward[:, None, None], spectral.proj_s, spectral.proj_u)
        signs = np.where(forward[gap_of], 1.0, -1.0)
        rates = np.where(forward[gap_of], spectral.lam, self._q_unstable)
        lip = poly.lipschitz_bound()
        gap = np.array(gaps)
        if n_gaps < len(gap):   # the backward series starts one step back
            gap[n_gaps:] = self.walk_gaps(gap[n_gaps:], "unstable", 1)[1][:, 0]
        gap = np.matmul(projs, gap[..., None])[..., 0]

        # both directions share one batch: two batches measured 13% slower on
        # the conjugacy_d3 benchmark and 7% on pcf_d3 (2-core machine)
        orbits = [self.exact_orbit(*intlinalg.dyadic(rows), backward) if len(rows) else None
                  for rows, backward in ((starts[:n_starts], False), (starts[n_starts:], True))]

        def segment(active):
            opened, at = _distinct(start_of[active], len(starts))
            split = np.searchsorted(opened, n_starts)   # the open forward starts, then backward
            points = np.concatenate([next(orbit)[own - lo] for orbit, own, lo in zip(
                orbits, (opened[:split], opened[split:]), (0, n_starts)) if own.size])
            length, d = points.shape[1:]
            opened, own = _distinct(gap_of[active], len(gap))
            states, nexts = walk_states(gap[opened], (steps[opened], projs[opened]), length)
            gap[opened] = nexts[:, -1]

            def blocks(kernel, rows):   # kernel on BATCH_ORBITS rows of the segment at a time
                return np.concatenate([
                    kernel(rows[lo:lo + BATCH_ORBITS].reshape(-1, d))
                    for lo in range(0, len(rows), BATCH_ORBITS)
                ]).reshape(len(rows), length, -1)

            rotations = blocks(poly.orbit_factors, points)
            factors = blocks(poly.gap_factors, states)
            k = factors.shape[-1]
            terms = np.concatenate([
                poly.factor_diff_rows(rotations[at[lo:lo + BATCH_ORBITS]].reshape(-1, k),
                                      factors[own[lo:lo + BATCH_ORBITS]].reshape(-1, k))
                for lo in range(0, len(active), BATCH_ORBITS)
            ])
            bounds = lip * np.sqrt(row_squares(nexts))
            return signs[active, None] * terms.reshape(len(active), length), bounds[own]

        return certified_sums(segment, VALUE_TOL, [0.0] * len(start_of), rates)[0]

    def _gradient_weights(self, direction: str, lo: int, hi: int):
        """Weights lo to hi - 1 of a PCF gradient half and the norm bound of each next weight.

        Stable: L^n U from n = 0. Unstable: the projected L^-n U from n = 1,
        each step re-projected onto E^u so stable float contamination does
        not grow. The bound after weight n is the largest singular value of
        weight n + 1. Both depend only on the flow, so each direction is
        walked once per flow, extended when a longer series needs more, and
        read by every later call. Returned as (1, hi - lo, d, dim E^u) and
        (1, hi - lo) arrays, to broadcast against the rows of a segment.
        """
        proj = self.spectral.proj_u
        if direction not in self._weights:
            u = self.unstable_frame()
            first = u if direction == "stable" else proj @ (self.lin_inv @ u)
            self._weights[direction] = (first[None], np.empty(0))
        weights, norms = self._weights[direction]
        if len(norms) < hi:
            matrices = (self.lin,) if direction == "stable" else (self.lin_inv, proj)
            ahead = walk_states(weights[-1:], matrices, hi - len(norms))[1][0]
            weights = np.concatenate([weights, ahead])
            norms = np.concatenate([norms, np.linalg.svd(ahead, compute_uv=False).max(axis=-1)])
            self._weights[direction] = (weights, norms)   # whole, in one assignment
        return weights[None, lo:hi], norms[None, lo:hi]

    # The gradient halves hand over a next-term bound times q, so their tails
    # are short by the next term (CHANGES.md FOUND); dropping `* q` moves digits.
    def stable_gradient(self, starts, den: int, deltas) -> np.ndarray:
        """Forward halves of PCF gradients at m starts, in unstable-frame coordinates.

        Row k is sum_{n>=0} (L^n U)^T [grad roof(F^n z + L^n w) - grad roof(F^n z)]
        over the exact orbit of starts[k] = z (a numerator row over the
        one den), with deltas[k] = w on the stable subspace and U the
        unstable frame. The weight L^n U grows like xi_max^n while the
        paired difference shrinks like lambda^n, so the tail is geometric at
        q = lambda * xi_max. Raises ValueError when q >= BUNCHING_CAP, as
        for every 2-dimensional base (q = 1). The m series run in lockstep
        over one orbit walk and share the weights of `_gradient_weights`,
        which do not depend on the start, so each row is bit-identical to
        its start run alone.
        """
        q = self._q_stable
        if q >= BUNCHING_CAP:
            raise ValueError(
                "the forward gradient series needs the bunching ratio "
                f"lambda*xi_max < {BUNCHING_CAP}, got {q:.3f}"
            )
        poly = self.roof.poly
        hess = poly.gradient_lipschitz_bound()
        gap, walked = np.array(deltas, dtype=float), 0
        orbit = self.exact_orbit(starts, den)

        def segment(active):
            nonlocal walked
            points = next(orbit)[active]
            length, d = points.shape[1:]
            deltas, nexts = self.walk_gaps(gap[active], "stable", length)
            gap[active] = nexts[:, -1]
            weights, norms = self._gradient_weights("stable", walked, walked + length)
            walked += length
            grads = poly.gradient_diff_rows(points.reshape(-1, d), deltas.reshape(-1, d))
            terms = np.matmul(weights.swapaxes(-1, -2), np.reshape(grads, (*deltas.shape, 1)))
            return terms[..., 0], hess * np.sqrt(row_squares(nexts)) * norms * q

        totals = np.zeros((len(starts), self.dim_unstable))
        return np.array(certified_sums(segment, GRADIENT_TOL, totals, q)[0])

    def unstable_gradient(self, starts, den: int, grads, totals) -> np.ndarray:
        """Backward halves of PCF gradients at m starts, in unstable-frame coordinates.

        Row k is sum_{n>=1} (L^-n U)^T g_n along the exact backward orbit
        of starts[k] (a numerator row over the one den), where
        grads(points, active) returns the rows g_n of one segment of the
        open series `active`, their points stacked as (len(active) * length,
        d) rows; each g_n is a roof gradient difference (bounded by 2 lip).
        The weights L^-n U of `_gradient_weights` contract at q = 1 / xi_min
        and are shared by the m series, which run in lockstep over one
        orbit walk. totals[k] is the running sum that row k continues: the
        forward half, or zeros.
        """
        lip = self.roof.poly.lipschitz_bound()
        q, walked = self._q_unstable, 0
        orbit = self.exact_orbit(starts, den, backward=True)

        def segment(active):
            nonlocal walked
            points = next(orbit)[active]
            length = points.shape[1]
            weights, norms = self._gradient_weights("unstable", walked, walked + length)
            walked += length
            rows = np.reshape(grads(points.reshape(-1, points.shape[-1]), active), points.shape)
            terms = np.matmul(weights.swapaxes(-1, -2), rows[..., None])
            return terms[..., 0], 2.0 * lip * norms * q

        return np.array(certified_sums(segment, GRADIENT_TOL, totals, q)[0])
