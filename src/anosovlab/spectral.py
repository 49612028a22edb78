"""Certified spectral classification of hyperbolic toral automorphisms.

An integer unimodular matrix seeds every suspension in the package. The
routines here compute its characteristic polynomial exactly, certify the
eigenvalue moduli away from 1, split stable/unstable eigenspaces into real
blocks, check the log-eigenvalue gap inequality for codimension-one
spectra, and enumerate the invariant subspaces of the unstable restriction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from . import intlinalg, util
from .errors import NotCodimensionOne, NotHyperbolic

_CERTIFY_FACTOR = 10.0  # hyperbolicity requires |modulus - 1| > factor * root error
ROOT_TOL = 1e-9         # largest a posteriori root error spectral_data accepts
NULL_CUTOFF = 1e-8      # null dimensions: singular values at or under this share of the largest are zero


# ---------------------------------------------------------------------------
# integer matrix wrapper


# A dataclass, not a NamedTuple like the other records: __init__ validates,
# and the instance is the lru_cache key of spectral_data.
@dataclass(frozen=True)
class IntegerMatrix:
    """Square integer matrix with |det| = 1, the base toral automorphism."""

    entries: intlinalg.IntMatrix

    def __init__(self, rows):
        mat = intlinalg.as_int_matrix(rows)
        if len(mat) < 2:
            raise ValueError("dimension must be at least 2")
        d = intlinalg.det(mat)
        if abs(d) != 1:
            raise ValueError(f"matrix must be unimodular, got det = {d}")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def power(self, n: int) -> intlinalg.IntMatrix:
        return intlinalg.mat_pow(self.entries, n)

    def inverse_entries(self) -> intlinalg.IntMatrix:
        """V U, for U A V = I from the unimodular diagonalization of A."""
        u, _, v = intlinalg.unimodular_diagonalize(self.entries)
        return intlinalg.mat_mul(v, u)

    @staticmethod
    def companion(coeffs) -> "IntegerMatrix":
        return IntegerMatrix(intlinalg.companion(coeffs))


# ---------------------------------------------------------------------------
# exact polynomial utilities (Fractions, ascending coefficients)


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def poly_deriv(p):
    return _poly_trim([p[k] * k for k in range(1, len(p))]) if len(p) > 1 else [Fraction(0)]


def poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        a = _poly_trim(a)
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a = a[:-1]
    return _poly_trim(q), _poly_trim(a if a else [Fraction(0)])


def _poly_gcd(a, b):
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
    while len(b) > 1 or b[0] != 0:
        _, r = poly_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


def _square_free_part(coeffs: list[int]):
    """Monic square-free polynomial with the same distinct roots."""
    p = [Fraction(c) for c in coeffs]
    g = _poly_gcd(p, poly_deriv(p))
    if len(g) == 1:
        return p
    q, r = poly_divmod(p, g)
    if any(r):
        raise ArithmeticError("inexact square-free division")
    lead = q[-1]
    return [c / lead for c in q]


def _poly_eval(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


def _companion_roots(cf) -> np.ndarray:
    """Sorted eigenvalues of the companion matrix of ascending coefficients cf.

    The matrix is numpy.polynomial's `polycompanion`: ones on the
    subdiagonal, last column -cf[:-1] / cf[-1]. So the eigenvalues are
    `polyroots(cf)` bit for bit, without importing numpy.polynomial.
    """
    c = np.asarray(cf, dtype=float)
    n = len(c) - 1
    mat = np.zeros((n, n))
    mat.reshape(-1)[n::n + 1] = 1.0
    mat[:, -1] -= c[:-1] / c[-1]
    return np.sort(np.linalg.eigvals(mat))


def _refine_roots(coeffs) -> list[tuple[complex, float]]:
    """Newton-polish roots of a square-free polynomial; return (root, bound).

    The bound deg * |p(z)| / |p'(z)| encloses the distance to a true root
    for simple roots.
    """
    deg = len(coeffs) - 1
    comp = _companion_roots([float(c) for c in coeffs])
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    out = []
    for z0 in sorted(comp, key=lambda z: (round(abs(z), 12), z.real, z.imag)):
        z = complex(z0)
        for _ in range(50):
            pz = _poly_eval(coeffs, z)
            dz = _poly_eval(deriv, z)
            if dz == 0:
                break
            step = pz / dz
            z -= step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        pz = _poly_eval(coeffs, z)
        dz = _poly_eval(deriv, z)
        bound = deg * abs(pz) / abs(dz) if dz != 0 else float("inf")
        out.append((z, bound))
    return out


def _root_multiplicities(coeffs: list[int]) -> list[tuple[complex, float, int]]:
    sf = _square_free_part(coeffs)
    roots = _refine_roots(sf)
    total = len(coeffs) - 1
    if len(sf) - 1 == total:
        return [(z, b, 1) for z, b in roots]
    # multiplicity of each distinct root by repeated synthetic differentiation
    out = []
    for z, b in roots:
        mult = 0
        p = [Fraction(c) for c in coeffs]
        while True:
            if abs(_poly_eval(p, z)) > 1e-6 * max(1.0, abs(z)) ** (len(p) - 1):
                break
            mult += 1
            p = poly_deriv(p)
        out.append((z, b, max(mult, 1)))
    if sum(m for _, _, m in out) != total:
        raise ArithmeticError("root multiplicities do not sum to the degree")
    return out


# ---------------------------------------------------------------------------
# spectral data


class SpectralBlock(NamedTuple):
    """Irreducible real invariant block: an eigenline or a complex-pair plane."""

    eigenvalue: complex          # representative (Im >= 0)
    modulus: float
    multiplicity: int            # algebraic multiplicity of the representative
    basis: np.ndarray            # d x 1 (real) or d x 2 (complex pair) columns
    is_complex_pair: bool
    is_stable: bool


class SpectralData(NamedTuple):
    """Eigenvalues, certified moduli, real stable/unstable bases and their float splitting."""

    matrix: IntegerMatrix
    char_poly: tuple[int, ...]              # monic, ascending coefficients
    eigenvalues: tuple[complex, ...]        # with multiplicity
    moduli: tuple[float, ...]               # sorted ascending, with multiplicity
    blocks: tuple[SpectralBlock, ...]
    stable_basis: np.ndarray                # d x dim E^s
    unstable_basis: np.ndarray              # d x dim E^u
    frame: np.ndarray                       # d x d, [unstable_basis | stable_basis]
    frame_inv: np.ndarray
    proj_u: np.ndarray                      # onto E^u along E^s
    proj_s: np.ndarray                      # onto E^s along E^u
    codimension_one: bool
    complex_unstable_pair: bool

    @property
    def lam(self) -> float:
        """The stable modulus lambda. The package's one codimension-one gate:
        a stable bundle of any other dimension raises NotCodimensionOne."""
        if not self.codimension_one:
            n_stable = sum(1 for m in self.moduli if m < 1.0)
            raise NotCodimensionOne(
                f"needs a one-dimensional stable bundle, got dim E^s = {n_stable}"
            )
        return self.moduli[0]

    @property
    def xi_min(self) -> float:
        """Weakest unstable modulus."""
        return min(m for m in self.moduli if m > 1.0)

    @property
    def xi_max(self) -> float:
        """Strongest unstable modulus."""
        return self.moduli[-1]

    @property
    def stable_eigenvalue(self) -> float:
        """Signed stable eigenvalue, +-lam."""
        stable = next(b for b in self.blocks if b.is_stable)
        return math.copysign(self.lam, stable.eigenvalue.real)

    def unstable_blocks(self) -> list[SpectralBlock]:
        return [b for b in self.blocks if not b.is_stable]


def _normalize_column(col: np.ndarray) -> np.ndarray:
    col = col / np.linalg.norm(col)
    k = int(np.argmax(np.abs(col)))
    if col[k] < 0:
        col = -col
    return col


def _real_eigvec(arr: np.ndarray, lam: complex, pair: bool) -> np.ndarray:
    """Real basis of the eigenspace block via the null space of (A - lam I).

    For a complex pair the returned columns are (Re z, Im z) of the
    eigenvector z, scaled by a common factor only: in these coordinates the
    matrix acts as an exact rotation-scaling with rate |lam|, which keeps
    the adapted block metric conformal.
    """
    d = arr.shape[0]
    m = arr.astype(complex) - lam * np.eye(d)
    _, sv, vh = np.linalg.svd(m)
    v = vh[-1].conj()
    if pair:
        k = int(np.argmax(np.abs(v)))
        v = v * (v[k].conjugate() / abs(v[k]))  # canonical phase
        re = v.real.copy()
        im = v.imag.copy()
        scale = np.linalg.norm(re)
        if scale < 1e-12:
            raise ArithmeticError("degenerate complex eigenvector")
        basis = np.stack([re / scale, im / scale], axis=1)
        if np.linalg.matrix_rank(basis, tol=1e-10) != 2:
            raise ArithmeticError("complex eigenvector did not span a plane")
        return basis
    return _normalize_column(v.real.copy())[:, None]


def _root_subspace_basis(arr: np.ndarray, lam: complex, pair: bool, mult: int) -> np.ndarray:
    """Real basis of the full generalized root subspace of lam (and conjugate)."""
    if mult == 1:
        return _real_eigvec(arr, lam, pair)
    d = arr.shape[0]
    m = np.linalg.matrix_power(arr.astype(complex) - lam * np.eye(d), mult)
    return _complex_null_basis(m, (2 if pair else 1) * mult, pair)


@functools.lru_cache(maxsize=64)
def spectral_data(matrix: IntegerMatrix) -> SpectralData:
    """Classify the spectrum of an integer unimodular matrix.

    Roots are Newton-polished on the exact characteristic polynomial and
    carry a posteriori error bounds; hyperbolicity is certified only when
    every modulus clears 1 by ten times its bound, otherwise NotHyperbolic
    is raised. A matrix is classified once per process and every caller
    shares the result, so its arrays are read-only; the cache is bounded so
    that `enumerate_catalog` does not keep every polynomial it tries.
    """
    coeffs = intlinalg.char_poly(matrix.entries)
    roots = _root_multiplicities(coeffs)
    for z, bound, _ in roots:
        if bound >= ROOT_TOL:
            raise ArithmeticError(f"root {z} certified only to {bound}")
    for z, bound, _ in roots:
        if abs(abs(z) - 1.0) <= _CERTIFY_FACTOR * max(bound, np.finfo(float).eps):
            raise NotHyperbolic(
                f"eigenvalue {z} has modulus {abs(z):.15g}, within certified error of 1"
            )

    arr = matrix.as_array()
    blocks = []
    eigenvalues = []
    for z, bound, mult in roots:
        if abs(z.imag) <= max(10 * bound, 1e-13):
            z = complex(z.real, 0.0)
        if z.imag < 0:
            continue  # keep one representative per conjugate pair
        pair = z.imag > 0
        basis = _root_subspace_basis(arr, z, pair, mult)
        blocks.append(
            SpectralBlock(
                eigenvalue=z,
                modulus=abs(z),
                multiplicity=mult,
                basis=basis,
                is_complex_pair=pair,
                is_stable=abs(z) < 1.0,
            )
        )
        eigenvalues.extend([z] * mult)
        if pair:
            eigenvalues.extend([z.conjugate()] * mult)
    blocks.sort(key=lambda b: (b.modulus, b.eigenvalue.real))
    eigenvalues.sort(key=lambda z: (abs(z), z.real, z.imag))
    moduli = tuple(sorted(abs(z) for z in eigenvalues))

    stable_cols = [b.basis for b in blocks if b.is_stable]
    unstable_cols = [b.basis for b in blocks if not b.is_stable]
    stable_basis = np.hstack(stable_cols) if stable_cols else np.zeros((matrix.dim, 0))
    unstable_basis = np.hstack(unstable_cols) if unstable_cols else np.zeros((matrix.dim, 0))
    frame = np.hstack([unstable_basis, stable_basis])
    frame_inv = np.linalg.inv(frame)
    n_u = unstable_basis.shape[1]
    proj_u = frame[:, :n_u] @ frame_inv[:n_u, :]
    proj_s = frame[:, n_u:] @ frame_inv[n_u:, :]

    for array in (stable_basis, unstable_basis, frame, frame_inv, proj_u, proj_s,
                  *(b.basis for b in blocks)):
        array.flags.writeable = False
    n_stable = sum(1 for m in moduli if m < 1.0)
    codim_one = n_stable == 1
    complex_unstable = any(b.is_complex_pair and not b.is_stable for b in blocks)
    return SpectralData(
        matrix=matrix,
        char_poly=tuple(coeffs),
        eigenvalues=tuple(eigenvalues),
        moduli=moduli,
        blocks=tuple(blocks),
        stable_basis=stable_basis,
        unstable_basis=unstable_basis,
        frame=frame,
        frame_inv=frame_inv,
        proj_u=proj_u,
        proj_s=proj_s,
        codimension_one=codim_one,
        complex_unstable_pair=complex_unstable,
    )


# ---------------------------------------------------------------------------
# spectral inequality and subspace checks


class SpectralGapReport(NamedTuple):
    """Log-eigenvalue inequality for codimension-one spectra.

    lhs = (log mu)^2 - (log xi_l)^2 and rhs = log mu * (log xi_l - log xi_1),
    where mu is the reciprocal stable modulus and xi_1 <= xi_l bound the
    unstable moduli; satisfied means lhs > rhs.
    """

    mu: float
    xi_1: float
    xi_l: float
    lhs: float
    rhs: float
    satisfied: bool


def spectral_gap_condition(data: SpectralData) -> SpectralGapReport:
    """Evaluate the gap inequality in natural logarithms."""
    mu = 1.0 / data.lam
    xi_1, xi_l = data.xi_min, data.xi_max
    log_mu, log_1, log_l = (float(np.log(v)) for v in (mu, xi_1, xi_l))
    lhs = log_mu ** 2 - log_l ** 2
    rhs = log_mu * (log_l - log_1)
    return SpectralGapReport(
        mu=mu, xi_1=xi_1, xi_l=xi_l, lhs=lhs, rhs=rhs, satisfied=bool(lhs > rhs)
    )


class InvariantSubspaceCatalog(NamedTuple):
    """Proper nontrivial invariant subspaces of the unstable restriction."""

    subspaces: tuple[np.ndarray, ...]      # each d x k column basis


def invariant_unstable_subspaces(data: SpectralData) -> InvariantSubspaceCatalog:
    """All sums of distinct unstable blocks but E^u itself; a finite catalog.

    Only codimension-one bases are taken (reading data.lam refuses the
    rest), and their spectrum is simple: every monic integer factor of p
    has constant term +-1, so it has a root inside the unit circle, and
    only one root lies there, so p is irreducible. The invariant subspaces
    of E^u are then exactly the sums of its eigenlines and complex-pair
    planes.
    """
    data.lam   # the codimension-one gate
    ublocks = [b.basis for b in data.unstable_blocks()]
    arr = data.matrix.as_array()
    subspaces = [
        np.hstack(chosen)
        for k in range(1, len(ublocks)) for chosen in combinations(ublocks, k)
    ]
    subspaces.sort(key=lambda b: (b.shape[1], tuple(np.round(b.flatten(), 9))))
    for sub in subspaces:
        if not util.contains_subspace(sub, arr @ sub, tol=1e-10):
            raise ArithmeticError("catalog subspace failed the invariance residual")
    return InvariantSubspaceCatalog(subspaces=tuple(subspaces))


def _complex_null_basis(m: np.ndarray, expect: int, realify: bool) -> np.ndarray:
    _, sv, vh = np.linalg.svd(m)
    top = sv[0] if sv.size else 0.0
    nd = m.shape[1] if top == 0.0 else int(np.sum(sv <= NULL_CUTOFF * top))
    vecs = vh[m.shape[1] - nd:].conj().T
    if realify:
        cols = []
        for j in range(vecs.shape[1]):
            cols.append(vecs[:, j].real)
            cols.append(vecs[:, j].imag)
        basis = util.orthonormalize(np.stack(cols, axis=1))
    else:
        basis = util.orthonormalize(vecs.real)
    if basis.shape[1] != expect:
        raise ArithmeticError("unexpected generalized eigenspace dimension")
    return basis


# ---------------------------------------------------------------------------
# catalog enumeration


class CatalogEntry(NamedTuple):
    coeffs: tuple[int, ...]
    matrix: IntegerMatrix
    data: SpectralData
    gap: SpectralGapReport


def enumerate_catalog(d: int, coeff_bound: int) -> list[CatalogEntry]:
    """Companion matrices of monic integer polynomials with constant term
    +-1 and middle coefficients bounded by coeff_bound, filtered down to
    hyperbolic codimension-one spectra. Ordered lexicographically by the
    ascending coefficient tuple.
    """
    if d not in (2, 3, 4, 5):
        raise ValueError("d must be one of 2, 3, 4, 5")
    if not 0 <= coeff_bound <= 10:
        raise ValueError(f"coeff_bound must be in [0, 10], got {coeff_bound}")
    entries = []
    mid_range = range(-coeff_bound, coeff_bound + 1)
    for const in (-1, 1):
        for mids in product(mid_range, repeat=d - 1):
            coeffs = (const, *mids, 1)
            matrix = IntegerMatrix.companion(coeffs)
            try:
                data = spectral_data(matrix)
            except NotHyperbolic:
                continue
            if not data.codimension_one:
                continue
            gap = spectral_gap_condition(data)
            entries.append(CatalogEntry(coeffs=coeffs, matrix=matrix, data=data, gap=gap))
    entries.sort(key=lambda e: e.coeffs)
    return entries
