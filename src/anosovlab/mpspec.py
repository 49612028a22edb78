"""Extended-precision spectral splittings via mpmath.

Double-precision eigenvectors leave displacements off their leaf by about
1e-17, which exact hyperbolic orbit iteration amplifies exponentially.
These helpers recompute the stable/unstable splitting to arbitrary
precision from the exact characteristic polynomial, so inputs can be
projected onto a leaf to far below any horizon's amplification.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .intlinalg import char_poly
from .spectral import IntegerMatrix

_DPS = 60
_DYADIC_BITS = 160


def _roots(matrix: IntegerMatrix):
    coeffs = char_poly(matrix.entries)
    with mp.workdps(_DPS):
        roots = mp.polyroots(
            [mp.mpf(c) for c in reversed(coeffs)], maxsteps=400, extraprec=300
        )
    return roots


def _eigvec(matrix: IntegerMatrix, lam):
    """Null vector of (M - lam I) by solving with one coordinate pinned."""
    d = matrix.dim
    a = [[mp.mpc(matrix.entries[i][j]) - (lam if i == j else 0) for j in range(d)]
         for i in range(d)]
    last_err = None
    for free in range(d - 1, -1, -1):
        rows = [i for i in range(d) if i != free]
        cols = [j for j in range(d) if j != free]
        sub = mp.matrix([[a[i][j] for j in cols] for i in rows])
        rhs = mp.matrix([-a[i][free] for i in rows])
        try:
            sol = mp.lu_solve(sub, rhs)
        except (ZeroDivisionError, ValueError) as err:
            last_err = err
            continue
        v = [mp.mpc(0)] * d
        v[free] = mp.mpc(1)
        for idx, j in enumerate(cols):
            v[j] = sol[idx]
        norm = mp.sqrt(sum(abs(x) ** 2 for x in v))
        return [x / norm for x in v]
    raise ArithmeticError(f"could not solve eigenvector system: {last_err}")


class MPSplitting:
    """Stable/unstable projections of an integer matrix at high precision."""

    def __init__(self, matrix: IntegerMatrix):
        self.matrix = matrix
        d = matrix.dim
        with mp.workdps(_DPS):
            roots = _roots(matrix)
            vecs = [_eigvec(matrix, lam) for lam in roots]
            frame = mp.matrix(d, d)
            for j, v in enumerate(vecs):
                for i in range(d):
                    frame[i, j] = v[i]
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
                    if abs(mp.im(val)) > mp.mpf(10) ** (-_DPS + 12):
                        raise ArithmeticError("stable projection came out non-real")
                    self.stable_proj[i, k] = mp.re(val)
            self.roots = roots

    def project(self, v, direction: str):
        """High-precision projection of a float vector onto E^s or E^u."""
        d = self.matrix.dim
        with mp.workdps(_DPS):
            vv = mp.matrix([mp.mpf(float(c)) for c in v])
            sv = self.stable_proj * vv
            if direction == "stable":
                out = sv
            elif direction == "unstable":
                out = vv - sv
            else:
                raise ValueError("direction must be 'stable' or 'unstable'")
            return [out[i] for i in range(d)]

    def project_fractions(self, v, direction: str) -> tuple[Fraction, ...]:
        """Leaf projection rationalized dyadically (exact past any horizon)."""
        vals = self.project(v, direction)
        scale = 1 << _DYADIC_BITS
        out = []
        with mp.workdps(_DPS):
            for x in vals:
                out.append(Fraction(int(mp.nint(x * scale)), scale))
        return tuple(out)


_cache: dict[tuple, MPSplitting] = {}


def splitting(matrix: IntegerMatrix) -> MPSplitting:
    key = matrix.entries
    if key not in _cache:
        _cache[key] = MPSplitting(matrix)
    return _cache[key]
