"""Roof functions and the periods-of-periodic-orbits criterion.

Roofs are real trigonometric polynomials on the d-torus. Keeping them in
closed form gives exact gradients, exact frequency bookkeeping under the
base map, and honest truncation control in the frequency-space coboundary
solver. Periodic points of the base automorphism are enumerated exactly, as
integer numerators over one denominator, so orbit averages of the roof
(the periodic obstructions) carry no enumeration error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import intlinalg
from .errors import NonHyperbolicPeriod, ObstructionNonzero, TruncationInsufficient
from .spectral import IntegerMatrix, spectral_data

TWO_PI = 2.0 * math.pi


def row_products(matrix, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for each row of a 2-D array.

    A stacked matmul makes the same BLAS call per row as `matrix @ row`
    (dot for a 1-D matrix, gemv for a 2-D one), so each result is bit-identical
    to the per-row product.
    """
    return np.matmul(matrix, rows[:, :, None])[..., 0]


def row_squares(rows: np.ndarray) -> np.ndarray:
    """row @ row for each row on the last axis of an array.

    One ddot per row, as np.linalg.norm takes it, so each result is
    bit-identical to the squared norm of that row alone.
    """
    return np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# trigonometric polynomials


class TrigPolynomial:
    """Finite Fourier sum sum_k c_k e^{2 pi i k.x} with c_{-k} = conj(c_k).

    Immutable; `terms` maps integer frequency tuples to complex
    coefficients and always contains both members of each +-k pair.
    """

    __slots__ = ("dim", "terms", "_freqs", "_coeffs")

    def __init__(self, dim: int, terms: dict):
        if dim < 1:
            raise ValueError("dimension must be positive")
        clean: dict[tuple[int, ...], complex] = {}
        for k, c in terms.items():
            k = tuple(int(v) for v in k)
            if len(k) != dim:
                raise ValueError(f"frequency {k} does not match dimension {dim}")
            c = complex(c)
            if c != 0:
                clean[k] = clean.get(k, 0.0 + 0.0j) + c
        for k, c in clean.items():
            neg = tuple(-v for v in k)
            if neg not in clean or abs(clean[neg] - c.conjugate()) > 1e-13 * max(1.0, abs(c)):
                raise ValueError(f"terms are not Hermitian-symmetric at frequency {k}")
        self.dim = dim
        self.terms = dict(sorted(clean.items()))
        self._freqs = np.array(list(self.terms.keys()), dtype=float).reshape(-1, dim)
        self._coeffs = np.array(list(self.terms.values()), dtype=complex)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, dim: int) -> "TrigPolynomial":
        return TrigPolynomial(dim, {(0,) * dim: complex(value)})

    @staticmethod
    def cosine(amplitude: float, freq, dim: int) -> "TrigPolynomial":
        """amplitude * cos(2 pi k.x)"""
        k = tuple(int(v) for v in freq)
        if not any(k):
            return TrigPolynomial.constant(amplitude, dim)
        neg = tuple(-v for v in k)
        half = 0.5 * amplitude
        return TrigPolynomial(dim, {k: complex(half), neg: complex(half)})

    @staticmethod
    def sine(amplitude: float, freq, dim: int) -> "TrigPolynomial":
        """amplitude * sin(2 pi k.x)"""
        k = tuple(int(v) for v in freq)
        if not any(k):
            return TrigPolynomial(dim, {})
        neg = tuple(-v for v in k)
        half = complex(0.0, -0.5 * amplitude)
        return TrigPolynomial(dim, {k: half, neg: half.conjugate()})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0 + 0.0j) + c
        return TrigPolynomial(self.dim, terms)

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "TrigPolynomial":
        return TrigPolynomial(self.dim, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def compose_matrix(self, matrix: IntegerMatrix) -> "TrigPolynomial":
        """Exact composition p(M x): frequency k moves to M^T k."""
        mt = tuple(zip(*matrix.entries))
        return TrigPolynomial(
            self.dim,
            {intlinalg.mat_vec(mt, k): c for k, c in self.terms.items()},
        )

    def shift(self, v) -> "TrigPolynomial":
        """p(x - v); coefficients pick up the phase e^{-2 pi i k.v}."""
        varr = np.array([float(x) for x in v])
        return TrigPolynomial(
            self.dim,
            {
                k: c * complex(np.exp(-1j * TWO_PI * float(np.dot(k, varr))))
                for k, c in self.terms.items()
            },
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> float:
        return float(self.evaluate_rows([x])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradient_rows([x])[0]

    def eval_diff(self, x, delta) -> float:
        """p(x + delta) - p(x), accurate to machine precision in the gap."""
        return float(self.eval_diff_rows([x], [delta])[0])

    def gradient_diff(self, x, delta) -> np.ndarray:
        """grad p(x + delta) - grad p(x), accurate like eval_diff."""
        return self.gradient_diff_rows([x], [delta])[0]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, d) array of points."""
        pts = np.asarray(points, dtype=float) % 1.0
        out = np.zeros(pts.shape[0])
        for chunk in range(0, pts.shape[0], 131072):
            sl = slice(chunk, chunk + 131072)
            phases = np.exp(1j * TWO_PI * (pts[sl] @ self._freqs.T))
            out[sl] = np.real(phases @ self._coeffs)
        return out

    # -- row kernels -----------------------------------------------------------
    # The methods above are one-row calls of these kernels, which every
    # series runs on a whole segment of orbit points. The phase work (theta,
    # beta, sin, exp) runs as one numpy call per stage. Every dot product is
    # one BLAS call per row, made by `row_products`: one gemm over the
    # segment accumulates in another order and with other FMA contractions,
    # so row i of each result would not equal the one-row call at row i bit
    # for bit, as it does here.

    def evaluate_rows(self, points) -> np.ndarray:
        """evaluate() at each row of an (N, d) array."""
        pts = np.asarray(points, dtype=float) % 1.0
        phases = np.exp(1j * TWO_PI * row_products(self._freqs, pts))
        return np.real(row_products(self._coeffs, phases))

    def gradient_rows(self, points) -> np.ndarray:
        """gradient() at each row of an (N, d) array."""
        pts = np.asarray(points, dtype=float) % 1.0
        phases = np.exp(1j * TWO_PI * row_products(self._freqs, pts))
        return np.real(row_products(1j * TWO_PI * self._freqs.T, self._coeffs * phases))

    def _diff_phases(self, points, deltas) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points, dtype=float) % 1.0
        theta = TWO_PI * row_products(self._freqs, pts)
        beta = TWO_PI * row_products(self._freqs, np.asarray(deltas, dtype=float))
        expm1 = -2.0 * np.sin(0.5 * beta) ** 2 + 1j * np.sin(beta)
        return np.exp(1j * theta), expm1

    def eval_diff_rows(self, points, deltas) -> np.ndarray:
        """eval_diff() at each row pair of two (N, d) arrays.

        Uses e^{i a}(e^{i b} - 1) with the small factor computed from
        sin/cos of b directly, so tiny stable-leaf gaps do not cancel.
        """
        rotation, expm1 = self._diff_phases(points, deltas)
        return np.real(row_products(self._coeffs, rotation * expm1))

    def gradient_diff_rows(self, points, deltas) -> np.ndarray:
        """gradient_diff() at each row pair of two (N, d) arrays, paired the same way."""
        rotation, expm1 = self._diff_phases(points, deltas)
        weights = self._coeffs * rotation * expm1
        return np.real(row_products(1j * TWO_PI * self._freqs.T, weights))

    # -- bounds and bookkeeping ----------------------------------------------

    @property
    def max_abs_freq(self) -> int:
        if not self.terms:
            return 0
        return max(max(abs(v) for v in k) for k in self.terms)

    def lipschitz_bound(self) -> float:
        return float(
            sum(abs(c) * TWO_PI * math.sqrt(sum(v * v for v in k))
                for k, c in self.terms.items())
        )

    def gradient_lipschitz_bound(self) -> float:
        return float(
            sum(abs(c) * (TWO_PI ** 2) * sum(v * v for v in k)
                for k, c in self.terms.items())
        )

    def is_constant(self) -> bool:
        return all(all(v == 0 for v in k) for k in self.terms)

    def __repr__(self) -> str:
        return f"TrigPolynomial(dim={self.dim}, n_terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# certified-positive roofs


# Branch-and-bound fallback: cells per axis of the first uniform grid, and
# the most cell centres one certificate may evaluate before it refuses.
BNB_COARSE_CELLS = 8
BNB_MAX_CELLS = 1 << 20


def _wiener_margin(poly: TrigPolynomial) -> float:
    """Re c_0 - sum_{k != 0} |c_k|, a lower bound on min p, rounded down.

    Each |c_k| is rounded up and the exact sum of the floats rounded down,
    so float rounding cannot lift the result above the true bound.
    """
    zero = (0,) * poly.dim
    parts = [poly.terms.get(zero, 0.0).real]
    parts += [-math.nextafter(abs(c), math.inf) for k, c in poly.terms.items() if k != zero]
    return math.nextafter(math.fsum(parts), -math.inf)


def _branch_and_bound_margin(poly: TrigPolynomial) -> float:
    """Lower bound on min p by adaptive Lipschitz branch-and-bound.

    Cubes of half-width h get the leaf bound p(centre) - L h sqrt(d) - err,
    with L bounding |grad p| and err the float error of one evaluation;
    only cubes whose bound is <= 0 are split, into 2^d halves. The search
    runs over the axes some frequency uses, as p is constant along the
    others. Raises ValueError when a centre is <= 0 or BNB_MAX_CELLS is
    reached.
    """
    axes = [i for i in range(poly.dim) if any(k[i] for k in poly.terms)]
    poly = TrigPolynomial(len(axes), {tuple(k[i] for i in axes): c for k, c in poly.terms.items()})
    dim = poly.dim
    lip = poly.lipschitz_bound()
    l1 = sum(abs(c) for c in poly.terms.values())
    max_freq = max(sum(abs(v) for v in k) for k in poly.terms)
    # each phase 2 pi k.x is off by about (d + 2) |k|_1 2 pi eps, the complex
    # products and the sum over terms add a few eps per term
    err = 8.0 * math.ulp(1.0) * l1 * (len(poly.terms) + TWO_PI * (dim + 2) * max_freq)
    signs = 2.0 * np.indices((2,) * dim).reshape(dim, -1).T - 1.0
    centres = (np.indices((BNB_COARSE_CELLS,) * dim).reshape(dim, -1).T + 0.5) / BNB_COARSE_CELLS
    half = 0.5 / BNB_COARSE_CELLS
    margin = math.inf
    evaluated = 0
    while len(centres):
        evaluated += len(centres)
        if evaluated > BNB_MAX_CELLS:
            raise ValueError(
                f"roof not certified positive (margin unresolved after {BNB_MAX_CELLS} cells)"
            )
        values = poly.evaluate_many(centres)
        if not values.min() > 0:
            raise ValueError(f"roof not certified positive (margin {values.min():.3g})")
        bounds = values - lip * half * math.sqrt(dim) - err
        leaves = bounds > 0
        if leaves.any():
            margin = min(margin, float(bounds[leaves].min()))
        half *= 0.5
        centres = (centres[~leaves][:, None, :] + half * signs[None, :, :]).reshape(-1, dim)
    return margin


@dataclass(frozen=True)
class RoofFunction:
    """Positive trig polynomial with a proven lower bound on its minimum.

    `positivity_margin` is the Wiener bound Re c_0 - sum_{k != 0} |c_k| when
    that is positive, and otherwise the margin of an adaptive Lipschitz
    branch-and-bound over the torus.
    """

    poly: TrigPolynomial
    positivity_margin: float

    def __init__(self, poly: TrigPolynomial):
        if poly.is_constant():
            margin = float(sum(c.real for c in poly.terms.values()))
        else:
            margin = _wiener_margin(poly)
            if not margin > 0:   # NaN fails closed, as in every margin test
                margin = _branch_and_bound_margin(poly)
        if not margin > 0:
            raise ValueError(f"roof not certified positive (margin {margin:.3g})")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "positivity_margin", float(margin))

    @property
    def dim(self) -> int:
        return self.poly.dim

    def __call__(self, x) -> float:
        return self.poly.evaluate(x)

    def mean(self) -> float:
        return float(self.poly.terms.get((0,) * self.dim, 0.0).real)


# ---------------------------------------------------------------------------
# periodic orbits, exactly


@dataclass(frozen=True)
class PeriodicOrbitRecord:
    """One orbit of the base automorphism; point i is numerators[i] / den."""

    numerators: tuple[tuple[int, ...], ...]
    den: int
    period_n: int
    flow_period: float | None = None

    def representative(self) -> tuple[int, ...]:
        """Numerators of the least point, where the orbit starts."""
        return min(self.numerators)


# Largest enumeration of periodic points one call may make: 2^20 points
# take about 3 s of CPU and 0.4 GB of peak RSS (companion(x^3 + x^2 - 1)
# at n = 49, 961,976 points, on a 2-core x86-64 Xeon), and a hyperbolic
# count grows exponentially in the period. It also keeps the int64
# arithmetic of `periodic_points` exact: den divides the count, so
# den <= 2^20, and a sum of d products of factors reduced mod den stays
# under d * den^2 <= d * 2^40.
MAX_PERIODIC_POINTS = 1 << 20


def _fix_matrix(matrix: IntegerMatrix, n: int) -> intlinalg.IntMatrix:
    """M^n - I; |det| of it counts the points with M^n x = x on the torus."""
    return intlinalg.mat_sub(matrix.power(n), intlinalg.identity(matrix.dim))


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices that sort the rows of an (N, d) array as tuples."""
    return np.lexsort(rows.T[::-1])


def periodic_points(
    matrix: IntegerMatrix, n: int, roof: RoofFunction | None = None
) -> list[PeriodicOrbitRecord]:
    """All orbits through points with M^n x = x on the torus.

    Solves (M^n - I) x in Z^d by unimodular diagonalization, so the points
    are exact rationals, integer numerators over den, the lcm of the
    diagonal, and their count is |det(M^n - I)|, refused past
    MAX_PERIODIC_POINTS. Orbits start at their representative and are
    sorted by (period, representative); when a roof is supplied each record
    carries the orbit's flow period (Birkhoff sum of the roof). The points
    are one int64 array in sorted-tuple order, on which M acts as a
    permutation of row indices; no orbit is walked point by point.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    dmat = _fix_matrix(matrix, n)
    count = abs(intlinalg.det(dmat))
    if count == 0:
        raise NonHyperbolicPeriod(f"det(M^{n} - I) = 0")
    if count > MAX_PERIODIC_POINTS:
        raise ValueError(
            f"period {n} has {count} periodic points, more than "
            f"MAX_PERIODIC_POINTS = {MAX_PERIODIC_POINTS}"
        )
    _, s, v = intlinalg.unimodular_diagonalize(dmat)
    dim = matrix.dim
    diag = [s[i][i] for i in range(dim)]
    den = math.lcm(*diag)
    # x = V w with w_j in (1/s_j) Z / Z, as numerators over den; every
    # factor is reduced mod den first, so the int64 products stay exact
    scaled = np.array([[row[j] * (den // diag[j]) % den for j in range(dim)] for row in v],
                      dtype=np.int64)
    steps = np.indices(diag, dtype=np.int64).reshape(dim, -1).T
    points = (steps @ scaled.T) % den
    # index order is sorted-tuple order from here on
    points = points[_lex_order(points)]
    # a sorted row is new where some column differs from the row before it
    fresh = np.zeros(count - 1, dtype=bool)
    for column in points.T:
        fresh |= column[1:] != column[:-1]
    distinct = 1 + np.count_nonzero(fresh)
    if distinct != count:
        raise ArithmeticError(f"enumerated {distinct} points but |det(M^n - I)| = {count}")

    # M commutes with M^n - I, so it permutes the points: sorting the images
    # gives successor[i], the index of the image of point i
    images = (points @ (np.array(matrix.entries, dtype=np.int64) % den).T) % den
    successor = np.empty(count, dtype=np.intp)
    successor[_lex_order(images)] = np.arange(count)

    # every orbit closes within n steps: its least index is the
    # representative, its first return the period
    index = np.arange(count)
    representative, period, walk = index.copy(), np.zeros(count, dtype=np.intp), index
    for step in range(1, n + 1):
        walk = successor[walk]
        np.minimum(representative, walk, out=representative)
        period[(period == 0) & (walk == index)] = step

    values = None
    if roof is not None:
        # den <= MAX_PERIODIC_POINTS, so the int64 quotient rounds as c / den
        values = roof.poly.evaluate_rows(points / den)
    # one tuple per point, shared by its orbit's record
    rows = list(zip(*points.T.tolist()))
    orbits = []
    for period_n in np.flatnonzero(np.bincount(period)).tolist():
        starts = index[(representative == index) & (period == period_n)]
        cycles = np.empty((len(starts), period_n), dtype=np.intp)
        cycles[:, 0] = starts
        for j in range(1, period_n):
            cycles[:, j] = successor[cycles[:, j - 1]]
        flows = [None] * len(starts)
        if values is not None:
            # cumsum adds left to right, as sum() over the cycle does
            flows = np.cumsum(values[cycles], axis=1)[:, -1]
            if (flows <= 0).any():
                raise ArithmeticError("flow period must be positive")
            flows = flows.tolist()
        orbits.extend(
            PeriodicOrbitRecord(tuple(map(rows.__getitem__, cycle)), den, period_n, flow)
            for cycle, flow in zip(cycles.tolist(), flows)
        )
    return orbits


# ---------------------------------------------------------------------------
# periodic obstructions and the coboundary criterion


@dataclass(frozen=True)
class ObstructionReport:
    orbits: tuple[PeriodicOrbitRecord, ...]
    averages: tuple[float, ...]
    spread: float


def periodic_obstructions(
    roof: RoofFunction, matrix: IntegerMatrix, n_max: int
) -> ObstructionReport:
    """Orbit averages flow_period / period for every orbit of period <= n_max.

    A roof cohomologous to a constant has all averages equal; the spread
    (max - min) is the computable obstruction.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    levels = range(1, n_max + 1)
    totals = itertools.accumulate(abs(intlinalg.det(_fix_matrix(matrix, n))) for n in levels)
    if any(total > MAX_PERIODIC_POINTS for total in totals):
        raise ValueError(
            f"periods <= {n_max} have more than MAX_PERIODIC_POINTS = {MAX_PERIODIC_POINTS} points"
        )
    # an orbit of period m was already kept at level m, so level n keeps
    # only period n; the list stays sorted by (period, representative)
    orbits = [
        rec for n in levels for rec in periodic_points(matrix, n, roof=roof) if rec.period_n == n
    ]
    averages = tuple(o.flow_period / o.period_n for o in orbits)
    spread = float(max(averages) - min(averages)) if averages else 0.0
    return ObstructionReport(orbits=tuple(orbits), averages=averages, spread=spread)


# Largest spread of the periodic orbit averages that still reads as a roof
# cohomologous to a constant.
OBSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class CoboundarySolution:
    """Solution data for roof = c + u o M - u, truncated in frequency."""

    constant_c: float
    transfer_u: TrigPolynomial
    residual_sup: float
    obstruction_spread: float


def _weyl_grid(dim: int, n: int) -> np.ndarray:
    # deterministic equidistributed test points (Weyl sequence on primes)
    primes = [2, 3, 5, 7, 11][:dim]
    steps = np.sqrt(np.array(primes, dtype=float))
    idx = np.arange(1, n + 1)[:, None]
    return (idx * steps[None, :]) % 1.0


def _orbit_segment(start, tmat, tmat_inv, proj_s, proj_u, support_radius):
    """Walk the frequency orbit of `start` under M^T far enough both ways.

    Backward steps expand the stable component, forward steps the unstable
    one, so once either projection clears twice the support radius no
    further support frequencies can occur in that direction.
    """
    def proj_norm(vec, proj):
        return float(np.linalg.norm(proj @ np.asarray(vec, dtype=float)))

    segment = [tuple(start)]
    k = tuple(start)
    for _ in range(400):
        k = intlinalg.mat_vec(tmat_inv, k)
        segment.insert(0, tuple(k))
        if proj_norm(k, proj_s) > 2.0 * support_radius + 1.0:
            break
    else:
        raise ArithmeticError("backward frequency walk did not escape")
    k = tuple(start)
    for _ in range(400):
        k = intlinalg.mat_vec(tmat, k)
        segment.append(tuple(k))
        if proj_norm(k, proj_u) > 2.0 * support_radius + 1.0:
            break
    else:
        raise ArithmeticError("forward frequency walk did not escape")
    return segment


def solve_coboundary(
    roof: RoofFunction,
    matrix: IntegerMatrix,
    trunc: int,
    obstructions: ObstructionReport,
) -> CoboundarySolution:
    """Solve u o M - u = roof - c in frequency space.

    The constant c is the mean of the roof. Each nonzero frequency orbit of
    M^T carries a telescoping one-sided sum; truncation keeps frequencies
    with max-norm <= trunc. The residual is re-evaluated on an independent
    equidistributed grid, never taken from the solver's own bookkeeping.
    `obstructions` is the caller's periodic_obstructions report for this
    roof and matrix; a spread over OBSTRUCTION_TOL refuses the roof.
    """
    poly = roof.poly
    if trunc < poly.max_abs_freq:
        raise ValueError("trunc must cover the roof's frequency support")
    if obstructions.spread > OBSTRUCTION_TOL:
        raise ObstructionNonzero(
            f"periodic averages spread {obstructions.spread:.3g} exceeds {OBSTRUCTION_TOL:.1g}"
        )

    solution_terms = _telescope_terms(poly, matrix, trunc)
    u = TrigPolynomial(poly.dim, solution_terms)
    c = roof.mean()
    resid = _independent_residual(u, poly, matrix, c)
    if resid > 1e-9:
        u2 = TrigPolynomial(poly.dim, _telescope_terms(poly, matrix, 2 * trunc))
        resid2 = _independent_residual(u2, poly, matrix, c)
        if resid2 > 0.5 * resid:
            raise TruncationInsufficient(
                f"residual {resid:.3g} does not improve with doubled cutoff ({resid2:.3g})"
            )
        u, resid = u2, resid2
    return CoboundarySolution(
        constant_c=c,
        transfer_u=u,
        residual_sup=resid,
        obstruction_spread=obstructions.spread,
    )


def _telescope_terms(poly: TrigPolynomial, matrix: IntegerMatrix, trunc: int) -> dict:
    tmat = tuple(zip(*matrix.entries))
    tmat_inv = tuple(zip(*matrix.inverse_entries()))
    tdata = spectral_data(IntegerMatrix(tmat))

    support = [k for k in poly.terms if any(k)]
    if not support:
        return {}
    radius = max(float(np.linalg.norm(np.asarray(k, dtype=float))) for k in support)

    solution: dict[tuple[int, ...], complex] = {}
    visited: set[tuple[int, ...]] = set()
    for k0 in sorted(support):
        if k0 in visited:
            continue
        segment = _orbit_segment(k0, tmat, tmat_inv, tdata.proj_s, tdata.proj_u, radius)
        seg_set = set(segment)
        visited |= seg_set & set(support)
        b = [poly.terms.get(k, 0.0 + 0.0j) for k in segment]
        total = sum(b)
        scale = max(abs(poly.terms[k]) for k in support)
        if abs(total) > 1e-9 * scale:
            raise ObstructionNonzero(
                f"frequency orbit through {k0} has nonzero telescoping sum {abs(total):.3g}"
            )
        # a_j = -(b_0 + ... + b_j) solves a_{j-1} - a_j = b_j with decay at
        # both ends of the orbit
        acc = 0.0 + 0.0j
        for k, bk in zip(segment, b):
            acc += bk
            val = -acc
            if val != 0 and max(abs(v) for v in k) <= trunc:
                solution[k] = solution.get(k, 0.0 + 0.0j) + val
    return solution


def _independent_residual(
    u: TrigPolynomial, roof_poly: TrigPolynomial, matrix: IntegerMatrix, c: float
) -> float:
    pts = _weyl_grid(roof_poly.dim, 4096)
    um = u.compose_matrix(matrix)
    vals = um.evaluate_many(pts) - u.evaluate_many(pts) - (roof_poly.evaluate_many(pts) - c)
    return float(np.max(np.abs(vals)))
