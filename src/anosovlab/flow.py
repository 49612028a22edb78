"""Suspension-flow kinematics over a hyperbolic toral automorphism.

The mapping torus is represented by its fundamental domain
{(x, s): 0 <= s < roof(x)} with the identification (x, roof(x)+s) ~ (Lx, s).
Points are base points: a leaf's fiber offset does not depend on the fiber.
Strong stable/unstable leaves through a point are graphs over the base
subspaces; their fiber offsets come from convergent time-adjustment series
with geometric tail control. Every tail-certified series of the package sums
through `certified_sums`, which walks one lockstep orbit of a batch of
starts and holds the one term cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np

from . import intlinalg
from .errors import OffLeaf, TruncationInsufficient
from .roof import RoofFunction, row_products
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
BATCH_ORBITS = 32      # orbits per return-series walk: limb walk peak RSS ~0.3 MB over a 2-orbit walk
CHART_RADIUS = 0.05    # largest leaf displacement a quadrilateral accepts
BUNCHING_CAP = 0.98    # largest forward gradient rate lambda * xi_max: keeps 1 / (1 - q) <= 50


def certified_sums(orbit, segment_terms, tol: float, totals) -> tuple[list, list[int]]:
    """Sum tail-certified series in lockstep, one segment of one orbit per round.

    Each block the orbit yields has one row per series on its leading axis,
    so row k belongs to the series that continues totals[k] (0.0, or the
    forward half of a two-sided series). A row is one start's exact-orbit
    segment, or a group of points walked together, as the orbit pair of
    each point of `perturb.return_series`. Each round calls
    segment_terms(block[active], active), active being the open series in
    order, which returns one row of terms and one row of tail bounds (each
    bounding all that follows its term) per open series. Series k adds its
    terms left to right, up to its first tail under tol, then leaves the
    batch; one still open after MAX_TERMS terms raises
    TruncationInsufficient. Returns the totals and the number of terms each
    series took.
    """
    totals, counts = list(totals), [0] * len(totals)
    active = list(range(len(totals)))
    used = 0
    while active:
        terms, tails = segment_terms(next(orbit)[active], active)
        limit = min(len(tails[0]), MAX_TERMS - used)
        still = []
        for row, k in enumerate(active):
            total = totals[k]
            for n, (term, tail) in enumerate(zip(terms[row], tails[row][:limit]), 1):
                total = total + term
                if tail < tol:
                    counts[k] = used + n
                    break
            else:
                still.append(k)
            totals[k] = total
        used += limit
        if still and used >= MAX_TERMS:
            raise TruncationInsufficient(
                f"series did not meet its tail bound {tol:g} within {MAX_TERMS} terms")
        active = still
    return totals, counts


def walk_states(state, step, length: int) -> tuple[np.ndarray, np.ndarray]:
    """A stacked recurrence over one segment, one row per series: (states, nexts).

    Point j sees states[:, j], and nexts[:, j] = step(states[:, j]) is the
    state of point j + 1, so the tail after term j reads nexts[:, j] and
    nexts[:, -1] starts the next segment.
    """
    states = np.empty((len(state), length, *state.shape[1:]))
    nexts = np.empty_like(states)
    for j in range(length):
        states[:, j] = state
        state = step(state)
        nexts[:, j] = state
    return states, nexts


def exact_points(rows) -> tuple[list[tuple[int, ...]], int]:
    """Float points as exact numerator rows over one den, reduced into [0, 1).

    The starts of every exact orbit that begins at a float point: the
    numerators of `intlinalg.dyadic`, each taken mod den. den stays the
    least power of two that holds every float of the batch.
    """
    nums, den = intlinalg.dyadic(rows)
    return [tuple(v % den for v in row) for row in nums], den


def affine_orbit(entries, offset, starts, den: int, centred: bool = False, skip: int = 0):
    """Exact orbits of m starts under x -> A x + c mod 1, in lockstep.

    The starts are numerator rows over den and c is rational. The points
    of `intlinalg.orbit_segments` over D, the lcm of den and the offset's
    denominators, are yielded as (m, SEGMENT, d) float arrays of n / D, so
    every float is the correctly rounded rational point, whatever else is
    in the batch. Each start is yielded as given; later points are reduced
    into [0, 1), or into [-1/2, 1/2) when centred. The first `skip` points
    are left out.
    """
    lift = math.lcm(den, *(v.denominator for v in offset)) // den
    nums = [[v * lift for v in start] for start in starts]
    den *= lift   # now D, the common denominator
    shift = [v.numerator * (den // v.denominator) for v in offset]
    if skip:
        nums = [
            next(islice(intlinalg.orbit_numerators(entries, shift, n, den, centred), skip, None))
            for n in nums
        ]
    blocks = intlinalg.orbit_segments(entries, shift, nums, den, SEGMENT, centred)
    points = intlinalg.segment_floats(next(blocks), den)
    points[:, 0] = [[v / den for v in n] for n in nums]   # the starts as given, not reduced
    yield points
    for block in blocks:
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
        start left out, as in every backward series). Yields (m, SEGMENT, d)
        arrays, one orbit segment of each of the m starts.
        """
        if not backward:
            return affine_orbit(self.base.entries, self.translation, starts, den)
        return affine_orbit(self.inv_entries, self._inv_translation, starts, den, skip=1)

    def birkhoff_exact(self, starts, den: int, n: int, backward: bool = False) -> list[float]:
        """Roof Birkhoff sums along the exact orbits of a batch of starts over den.

        One n-term sum per start, in order, each added left to right:
        forward sum_{k=0}^{n-1} roof(F^k x), backward sum_{k=1}^{n}
        roof(F^-k x), with each start first reduced into [0, 1). The orbits
        are walked in lockstep and evaluated in one call per segment, so
        each sum is bit-identical whatever else is in the batch and in what
        order.
        """
        totals = np.zeros(len(starts))
        orbit = self.exact_orbit([[v % den for v in x] for x in starts], den, backward)
        while n > 0:
            rows = next(orbit)[:, :n]
            values = self.roof.poly.evaluate_rows(rows.reshape(-1, self.dim))
            # cumsum adds left to right from each running total
            totals = np.cumsum(
                np.column_stack([totals, np.reshape(values, rows.shape[:2])]), axis=1)[:, -1]
            n -= rows.shape[1]
        return totals.tolist()

    # -- leaf machinery ----------------------------------------------------------

    def leaf_part(self, v, direction: str) -> np.ndarray:
        """The part of a base displacement, or of each row of a stack, along its `direction` leaf.

        The package's one leaf test: each row is split in the spectral
        frame with one `row_products` gemv per row (bit-identical to the
        product of that row alone), and a transverse part of norm over
        LEAF_TOL raises OffLeaf, which names the largest one. Returns the
        parts in the shape of v.
        """
        if direction not in ("stable", "unstable"):
            raise ValueError("direction must be 'stable' or 'unstable'")
        spectral, n_u = self.spectral, self.dim_unstable
        v = np.asarray(v, dtype=float)
        coords = row_products(spectral.frame_inv, np.atleast_2d(v))
        vu = row_products(spectral.frame[:, :n_u], coords[:, :n_u])
        vs = row_products(spectral.frame[:, n_u:], coords[:, n_u:])
        part, transverse = (vs, vu) if direction == "stable" else (vu, vs)
        # one ddot per row, as np.linalg.norm takes it
        squares = np.matmul(transverse[:, None, :], transverse[:, :, None])[:, 0, 0]
        norm = math.sqrt(squares.max(initial=0.0))
        if norm > LEAF_TOL:
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
        has alone. Identical requests share one series. The series of one
        direction run in lockstep (see `_leaf_series`), so each value is
        bit-identical whatever else is in the batch and in what order.
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
        # each row's own ddot, so a row is zero exactly when its norm is
        squares = np.matmul(deltas[:, None, :], deltas[:, :, None])[:, 0, 0]
        for direction, indices in rows.items():
            self.leaf_part(deltas[indices], direction)
        if self.roof.poly.is_constant():
            return values
        for direction, indices in rows.items():
            indices = [i for i in indices if squares[i] != 0.0]
            gaps = deltas[indices]
            if direction == "unstable":
                gaps = row_products(self.spectral.proj_u, row_products(self.lin_inv, gaps))
            series = {}   # (start, gap) bytes -> (start, gap, indices)
            for i, x, gap in zip(indices, xs[indices], gaps):
                series.setdefault((x.tobytes(), gap.tobytes()), (x, gap, []))[2].append(i)
            if series:
                starts, gaps, owners = zip(*series.values())
                for value, shared in zip(self._leaf_series(direction, starts, gaps), owners):
                    for i in shared:
                        values[i] = value
        return values

    def _leaf_series(self, direction: str, starts, gaps) -> list[float]:
        """The leaf series of one direction, summed by `certified_sums` over one orbit.

        Each round advances the gaps of all open series with one
        `row_products` pair per step (the gemv per row of
        `proj @ (step @ d)`, so bit-identical to it) and evaluates every row
        in one `eval_diff_rows` call. The tail after a term is geometric in
        the next gap: the leaf displacement is invariant under the base map,
        and re-projecting each step stops float noise in the complementary
        (expanding) subspace from compounding.
        """
        if direction == "stable":
            step, proj, sign, rate = self.lin, self.spectral.proj_s, 1.0, self.spectral.lam
        else:
            step, proj, sign, rate = self.lin_inv, self.spectral.proj_u, -1.0, self._q_unstable
        poly = self.roof.poly
        lip = poly.lipschitz_bound()
        contraction = max(1.0 - rate, 1e-12)
        gap = row_products(proj, np.array(gaps))

        def segment(points, active):
            m, length, d = points.shape
            states, nexts = walk_states(
                gap[active], lambda g: row_products(proj, row_products(step, g)), length)
            gap[active] = nexts[:, -1]
            terms = poly.eval_diff_rows(points.reshape(-1, d), states.reshape(-1, d))
            # the squared norm d @ d of each next gap, one ddot per row as well
            squares = np.matmul(nexts[..., None, :], nexts[..., :, None])[..., 0, 0]
            return ((sign * np.reshape(terms, (m, length))).tolist(),
                    (lip * np.sqrt(squares) / contraction).tolist())

        orbit = self.exact_orbit(*exact_points(starts), direction == "unstable")
        return certified_sums(orbit, segment, VALUE_TOL, [0.0] * len(starts))[0]

    def stable_gradient(self, starts, den: int, deltas) -> np.ndarray:
        """Forward halves of PCF gradients at m starts, in unstable-frame coordinates.

        Row k is sum_{n>=0} (L^n U)^T [grad roof(F^n z + L^n w) - grad roof(F^n z)]
        over the exact orbit of starts[k] = z (a numerator row over the
        one den), with deltas[k] = w on the stable subspace and U the
        unstable frame. The weight L^n U grows like xi_max^n while the
        paired difference shrinks like lambda^n, so the tail is geometric at
        q = lambda * xi_max. Raises ValueError when q >= BUNCHING_CAP, as
        for every 2-dimensional base (q = 1). The m series run in lockstep
        over one orbit walk and share the weights, which do not depend on
        the start, so each row is bit-identical to its start run alone.
        """
        q = self._q_stable
        if q >= BUNCHING_CAP:
            raise ValueError(
                "the forward gradient series needs the bunching ratio "
                f"lambda*xi_max < {BUNCHING_CAP}, got {q:.3f}"
            )
        poly = self.roof.poly
        hess = poly.gradient_lipschitz_bound()
        lin, proj = self.lin, self.spectral.proj_s
        gap, weight = np.array(deltas, dtype=float), self.unstable_frame()[None]

        def segment(points, active):
            nonlocal weight
            length, d = points.shape[1:]
            deltas, nexts = walk_states(
                gap[active], lambda g: row_products(proj, row_products(lin, g)), length)
            weights, ahead = walk_states(weight, lambda w: np.matmul(lin, w), length)
            gap[active], weight = nexts[:, -1], ahead[:, -1]
            grads = poly.gradient_diff_rows(points.reshape(-1, d), deltas.reshape(-1, d))
            terms = np.matmul(weights.swapaxes(-1, -2), np.reshape(grads, (*deltas.shape, 1)))
            squares = np.matmul(nexts[..., None, :], nexts[..., :, None])[..., 0, 0]
            norms = np.linalg.svd(ahead, compute_uv=False).max(axis=-1)
            return terms[..., 0], (hess * np.sqrt(squares) * norms * q / (1.0 - q)).tolist()

        orbit = self.exact_orbit(starts, den)
        return np.array(certified_sums(orbit, segment, GRADIENT_TOL, [0.0] * len(starts))[0])

    def unstable_gradient(self, starts, den: int, grads, totals) -> np.ndarray:
        """Backward halves of PCF gradients at m starts, in unstable-frame coordinates.

        Row k is sum_{n>=1} (L^-n U)^T g_n along the exact backward orbit
        of starts[k] (a numerator row over the one den), where
        grads(points, active) returns the rows g_n of one segment of the
        open series `active`, their points stacked as (len(active) * length,
        d) rows; each g_n is a roof gradient difference (bounded by 2 lip).
        The weights L^-n U contract at q = 1 / xi_min, re-projected onto
        E^u each step so stable float contamination does not grow, and are
        shared by the m series, which run in lockstep over one orbit walk.
        totals[k] is the running sum that row k continues: the forward half,
        or 0.0.
        """
        lip = self.roof.poly.lipschitz_bound()
        lin_inv, proj, q = self.lin_inv, self.spectral.proj_u, self._q_unstable
        weight = (proj @ (lin_inv @ self.unstable_frame()))[None]

        def segment(points, active):
            nonlocal weight
            weights, nexts = walk_states(
                weight, lambda w: np.matmul(proj, np.matmul(lin_inv, w)), points.shape[1])
            weight = nexts[:, -1]
            rows = np.reshape(grads(points.reshape(-1, points.shape[-1]), active), points.shape)
            norms = np.linalg.svd(nexts, compute_uv=False).max(axis=-1)
            tails = np.broadcast_to(2.0 * lip * norms * q / (1.0 - q), points.shape[:2])
            return np.matmul(weights.swapaxes(-1, -2), rows[..., None])[..., 0], tails.tolist()

        orbit = self.exact_orbit(starts, den, backward=True)
        return np.array(certified_sums(orbit, segment, GRADIENT_TOL, list(totals))[0])
