"""The exact stable projector of a codimension-one toral automorphism.

Double-precision eigenvectors leave displacements off their leaf by about
1e-17, which exact hyperbolic orbit iteration amplifies exponentially.
Every flow has dim E^s = 1, so with p the characteristic polynomial and
lambda its one stable root, the projector onto E^s along E^u is
P_s = r(A) / p'(lambda), where r(x) = p(x) / (x - lambda). lambda is
bisected on p in integers to K bits, and P_s is kept as the integer
matrix N = round(2^K P_s). A projection is one exact integer product,
rounded once to a multiple of 1 / DYADIC_DEN, far below any horizon's
amplification.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .intlinalg import dyadic, mat_pow, mat_vec, round_shift
from .spectral import ROOT_TOL, IntegerMatrix, poly_deriv, poly_divmod, spectral_data

K = 320                 # bits of lambda and of the projector numerators N / 2^K
DYADIC_DEN = 1 << 160   # a projection is integer numerators over this power of two


def _sign_at(coeffs: list[int], num: int) -> int:
    """Sign of p(num / 2^K), from the integer 2^(K deg p) p(num / 2^K)."""
    deg = len(coeffs) - 1
    acc = 0
    for k in range(deg, -1, -1):
        acc = acc * num + (coeffs[k] << (K * (deg - k)))
    return (acc > 0) - (acc < 0)


def _stable_root(coeffs: list[int], lam: float) -> int:
    """The stable root of p as an integer numerator over 2^K, by bisection
    from the enclosure lam +- ROOT_TOL that spectral_data certifies."""
    [ends], den = dyadic([(lam - ROOT_TOL, lam + ROOT_TOL)])
    lo, hi = ((v << K) // den for v in ends)   # floor(x 2^K), exactly
    sign_lo = _sign_at(coeffs, lo)
    if sign_lo * _sign_at(coeffs, hi) >= 0:
        raise ArithmeticError(f"p shows no sign change on the enclosure of {lam!r}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign_at(coeffs, mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo


class MPSplitting:
    """The stable projector of an integer matrix as numerators over 2^K."""

    def __init__(self, matrix: IntegerMatrix):
        data = spectral_data(matrix)
        # stable_eigenvalue is the codimension-one gate: one simple real stable root
        lam = Fraction(_stable_root(data.char_poly, data.stable_eigenvalue), 1 << K)
        p, linear = [Fraction(c) for c in data.char_poly], [-lam, Fraction(1)]
        r, _ = poly_divmod(p, linear)
        _, (slope,) = poly_divmod(poly_deriv(p), linear)   # p'(lambda), the remainder
        powers = [mat_pow(matrix.entries, k) for k in range(len(r))]
        self.numerators = tuple(   # round(2^K r(A) / p'(lambda)), entry by entry
            tuple(round(sum(c * a[i][j] for c, a in zip(r, powers)) * (1 << K) / slope)
                  for j in range(matrix.dim))
            for i in range(matrix.dim)
        )

    def stable_numerators(self, nums, den: int) -> tuple[list[int], int]:
        """P_s (nums / den) as numerators over D = lcm(2^K, den), and D. The
        one rounding, to nearest with ties to even, is exact when den is odd."""
        shift = min((den & -den).bit_length() - 1, K)   # 2^shift = gcd(2^K, den)
        out = [round_shift(s, shift) for s in mat_vec(self.numerators, nums)]
        return out, (den >> shift) << K

    def project(self, v, direction: str) -> tuple[list[int], int]:
        """Projection of a float vector onto E^s or E^u, as numerators over DYADIC_DEN.

        `dyadic` makes the floats exact over a power of two, so the
        product with N is exact and the one rounding is to nearest, ties
        to even.
        """
        [nums], den = dyadic([v])
        out = mat_vec(self.numerators, nums)
        if direction == "unstable":
            out = [(n << K) - s for n, s in zip(nums, out)]
        elif direction != "stable":
            raise ValueError("direction must be 'stable' or 'unstable'")
        shift = K + den.bit_length() - DYADIC_DEN.bit_length()
        return [round_shift(s, shift) for s in out], DYADIC_DEN


@functools.lru_cache(maxsize=64)  # one entry per matrix: bounded as the spectral_data it reads
def splitting(matrix: IntegerMatrix) -> MPSplitting:
    """The projector of a matrix, built once per process while it stays cached."""
    return MPSplitting(matrix)
