"""Exact integer matrix arithmetic: determinants, powers, lattice diagonalization.

Matrices are tuples of tuples of Python ints, so results are exact
regardless of entry growth under matrix powers. The one numpy routine,
`orbit_segments`, stays exact too: it runs on uint64 only where its
modulus divides 2^64, and on arrays of Python ints otherwise.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

import numpy as np

IntMatrix = tuple[tuple[int, ...], ...]


def as_int_matrix(rows) -> IntMatrix:
    mat = tuple(tuple(int(v) for v in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square and non-empty")
    return mat


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[k] * bc[k] for k in range(n)) for bc in bt) for ar in a
    )


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    if n < 0:
        raise ValueError("negative powers not supported for integer matrices")
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def mat_vec(a: IntMatrix, v):
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def orbit_numerators(a: IntMatrix, offset, start, den: int, centred: bool = False):
    """Exact orbit of start / den under x -> A x + offset / den mod 1.

    Points are integer numerators over the fixed denominator den, so a
    step is n <- (A n + offset) mod den, with no gcd. The start is yielded
    as given; later points are reduced into [0, den), or into
    [-den/2, den/2) when centred.
    """
    lo = den // 2 if centred else 0
    shift = [c + lo for c in offset]
    nums = tuple(start)
    while True:
        yield nums
        nums = tuple([(v + c) % den - lo for v, c in zip(mat_vec(a, nums), shift)])


@functools.lru_cache(maxsize=None)
def _segment_stack(a: IntMatrix, length: int) -> tuple[np.ndarray, np.ndarray]:
    """[A^j | sum_{i<j} A^i] for j = 0..length, stacked into one array.

    Row block j maps [n; offset] to the j-th orbit point of n before
    reduction. Returned with Python-int entries (object) and with their
    residues mod 2^64 (uint64), both read-only as every caller shares them.
    """
    n = len(a)
    power, partial = identity(n), tuple((0,) * n for _ in range(n))
    rows = []
    for _ in range(length + 1):
        rows.extend(p + s for p, s in zip(power, partial))
        partial = tuple(tuple(map(operator.add, s, p)) for s, p in zip(partial, power))
        power = mat_mul(a, power)
    exact = np.array(rows, dtype=object)
    wrapped = np.array([[v % 2**64 for v in row] for row in rows], dtype=np.uint64)
    exact.flags.writeable = wrapped.flags.writeable = False
    return exact, wrapped


def orbit_segments(a: IntMatrix, offset, start, den: int, length: int, centred: bool = False):
    """The orbit of `orbit_numerators`, `length` points at a time.

    Yields (length, d) arrays of numerators, every row reduced as the later
    points of `orbit_numerators` are (so row 0 is the start reduced). Each
    segment is one matmul of the stacked `_segment_stack` with [n; offset],
    whose last row starts the next segment. When den divides 2^64 the
    matmul runs on uint64: wrap-around mod 2^64 is exact mod den, and the
    rows come back as uint64, or int64 when centred. Any other den runs
    the same matmul on Python ints, in an object array.
    """
    exact, wrapped = _segment_stack(a, length)
    d = len(a)
    if den & (den - 1) or den > 2**64:
        lo = den // 2 if centred else 0
        vec = np.array([*start, *offset], dtype=object)
        while True:
            block = ((exact @ vec + lo) % den - lo).reshape(length + 1, d)
            vec[:d] = block[length]
            yield block[:length]
    mask = np.uint64(den - 1)
    vec = np.array([v % 2**64 for v in (*start, *offset)], dtype=np.uint64)
    while True:
        block = (wrapped @ vec).reshape(length + 1, d) & mask
        vec[:d] = block[length]
        if not centred:
            yield block[:length]
        elif den == 2**64:
            yield block[:length].view(np.int64)
        else:
            half = den // 2
            yield ((block[:length] + np.uint64(half)) & mask).astype(np.int64) - half


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def char_poly(a: IntMatrix) -> list[int]:
    """Monic characteristic polynomial, ascending coefficients [c0, ..., 1].

    Faddeev-LeVerrier recurrence run in exact rational arithmetic; the
    result is always integral for integer matrices.
    """
    n = len(a)
    af = [[Fraction(v) for v in row] for row in a]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # mk <- A @ mk
        mk = [
            [sum(af[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(mk[i][i] for i in range(n))
        c = -trace / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("characteristic polynomial came out non-integral")
        out.append(int(c))
    return out


def companion(coeffs) -> IntMatrix:
    """Companion matrix of a monic integer polynomial (ascending coeffs)."""
    coeffs = [int(c) for c in coeffs]
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("degree must be at least 1")
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return as_int_matrix(rows)


def unimodular_diagonalize(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (u, s, v) with u @ a @ v = s, u and v unimodular, s diagonal.

    Diagonal entries are non-negative. No divisibility chain is enforced;
    any unimodular diagonalization serves for lattice coset enumeration.
    """
    n = len(a)
    s = [list(row) for row in a]
    u = [list(row) for row in identity(n)]
    v = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src], tracked in u
        for k in range(n):
            s[dst][k] += q * s[src][k]
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for t in range(n):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if s[i][j] != 0 and (best is None or abs(s[i][j]) < best):
                        best = abs(s[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(pi, t)
            if pj != t:
                swap_cols(pj, t)
            done = True
            for i in range(t + 1, n):
                if s[i][t] != 0:
                    add_row(t, i, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        done = False
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    add_col(t, j, -(s[t][j] // s[t][t]))
                    if s[t][j] != 0:
                        done = False
            if done:
                break
        if s[t][t] < 0:
            for k in range(n):
                s[t][k] = -s[t][k]
                u[t][k] = -u[t][k]
    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in s),
        tuple(tuple(row) for row in v),
    )


def inverse_rational(a: IntMatrix) -> list[list[Fraction]]:
    """Exact inverse over the rationals (raises on singular input)."""
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
