"""Exact integer matrix arithmetic: determinants, powers, lattice diagonalization.

Matrices are tuples of tuples of Python ints, so results are exact
regardless of entry growth under matrix powers. The one numpy routine,
`orbit_segments`, stays exact too. It walks a batch of orbits over one
denominator D on one of four branches: uint64 where D divides 2^64,
int64 limbs of LIMB_BITS bits where D = 2^k with k > 64, int64 residues
joined by the Chinese remainder theorem where D = 2^k q with q > 1 odd,
D < 2^63 and 2d (q - 1)^2 < 2^63 for a d-dimensional map, and arrays of
Python ints for every D past that bound. Neither int64 branch wraps: its
stack is checked, when built, to keep every limb sum under 2^62 and every
residue sum under 2^63.
"""

from __future__ import annotations

import functools
import math
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


def dyadic(values) -> tuple[list[tuple[int, ...]], int]:
    """Rows of floats as exact integer numerators over one denominator.

    The package's one float-to-exact conversion. Each float is its
    mantissa over a power of two, in lowest terms, so den, the largest of
    those powers, is the least common denominator of every value, and each
    numerator is the value times den exactly. Nothing is reduced mod 1.
    """
    ratios = [[float(v).as_integer_ratio() for v in row] for row in values]
    den = max((q for row in ratios for _, q in row), default=1)
    return [tuple(p * (den // q) for p, q in row) for row in ratios], den


def round_shift(x: int, shift: int) -> int:
    """x / 2^shift rounded to the nearest integer, ties to even."""
    q, rest = divmod(x, 1 << shift)
    return q + (2 * rest > 1 << shift or (2 * rest == 1 << shift and q & 1))


def sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded to a float, for num >= 0 and den > 0.

    The integer root of num / den scaled by 4^s keeps at least 59 bits; an
    inexact root gains a sticky last bit, so the one float rounding of
    root / 2^s is the rounding of the exact value.
    """
    s = max(0, (120 - num.bit_length() + den.bit_length()) // 2)
    scaled, rest = divmod(num << (2 * s), den)
    root = math.isqrt(scaled)
    if rest or root * root != scaled:
        root, s = 2 * root + 1, s + 1
    return math.ldexp(float(root), -s)


def orbit_numerators(a: IntMatrix, offset, start, den: int):
    """Exact orbit of start / den under x -> A x + offset / den mod 1.

    Points are integer numerators over the fixed denominator den, so a
    step is n <- (A n + offset) mod den, with no gcd. The start is yielded
    as given; later points are reduced into [0, den).
    """
    nums = tuple(start)
    while True:
        yield nums
        nums = tuple([(v + c) % den for v, c in zip(mat_vec(a, nums), offset)])


# Limb width of the exact walks over 2^k > 2^64. A limb product is under
# 2^(2W - 1) and a segment sums 2d of them per stack limb, so a limb sum
# stays near 2^46 for d = 4, far inside int64 (`_segment_stack` checks the
# bound); three limbs make one 63-bit window for the float conversion.
LIMB_BITS = 21
_LIMB_MASK = (1 << LIMB_BITS) - 1
_LIMB_HALF = 1 << (LIMB_BITS - 1)


def _signed_limbs(value: int) -> list[int]:
    """value = sum_t limb_t 2^(W t), each limb in [-2^(W-1), 2^(W-1))."""
    limbs = []
    while value:
        low = ((value + _LIMB_HALF) & _LIMB_MASK) - _LIMB_HALF
        limbs.append(low)
        value = (value - low) >> LIMB_BITS
    return limbs


@functools.lru_cache(maxsize=None)
def _segment_stack(a: IntMatrix, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[A^j | sum_{i<j} A^i] for j = 0..length, stacked into one array.

    Row block j maps [n; offset] to the j-th orbit point of n before
    reduction. Returned three ways, all read-only as every caller shares
    them: with Python-int entries (object), with their residues mod 2^64
    (uint64), and as signed LIMB_BITS-bit limbs, one (rows, 2d) int64 layer
    per limb. Raises OverflowError when a limb walk could wrap int64.
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
    split = [[_signed_limbs(v) for v in row] for row in rows]
    depth = max(1, *(len(limbs) for row in split for limbs in row))
    limbs = np.array([[[(limbs[t] if t < len(limbs) else 0) for limbs in row] for row in split]
                      for t in range(depth)], dtype=np.int64)
    # a limb of the sum gathers |stack limb| * (2^W - 1) over every layer and
    # column; the carry it takes in adds under half as much again
    bound = int(np.abs(limbs).sum(axis=(0, 2)).max()) * _LIMB_MASK
    if 2 * bound + 2 >= 2**63:
        raise OverflowError(f"limb sums of this orbit stack could reach 2^{bound.bit_length()}")
    for array in (exact, wrapped, limbs):
        array.flags.writeable = False
    return exact, wrapped, limbs


def _twos(den: int) -> int:
    """k with den = 2^k q, q odd."""
    return (den & -den).bit_length() - 1


def _walk_branch(den: int, d: int) -> str:
    """The form `orbit_segments` walks den in for a d-dimensional map.

    "uint64" where den divides 2^64, "limbs" for 2^k past it, "crt" for
    den = 2^k q, q > 1 odd, with den < 2^63 and 2d (q - 1)^2 < 2^63, and
    "object" for every other den. The CRT bound keeps each int64 residue
    sum, 2d products of residues under q, from wrapping.
    """
    if not den & (den - 1):
        return "uint64" if den <= 2**64 else "limbs"
    q = den >> _twos(den)
    return "crt" if den < 2**63 and 2 * d * (q - 1) ** 2 < 2**63 else "object"


@functools.lru_cache(maxsize=None)
def _residue_stack(a: IntMatrix, length: int, q: int) -> np.ndarray:
    """The `_segment_stack` entries mod q as read-only int64, for the CRT walk.

    Raises OverflowError when a residue walk could wrap int64: a sum of
    residues under q times the entries of one stack row.
    """
    residues = (_segment_stack(a, length)[0] % q).astype(np.int64)
    bound = int(residues.sum(axis=1).max()) * (q - 1)
    if bound >= 2**63:
        raise OverflowError(f"residue sums of this orbit stack could reach 2^{bound.bit_length() - 1}")
    residues.flags.writeable = False
    return residues


def orbit_segments(a: IntMatrix, offset, starts, den: int, length: int, centred: bool = False):
    """The orbits of `orbit_numerators` from m starts, `length` points at a time.

    Walks the m orbits in lockstep and yields one block per segment, row j
    of start i at [i, j]. Every row is reduced as the later points of
    `orbit_numerators` are, or into [-den/2, den/2) when centred (so row 0
    is the start reduced). A segment is the stacked `_segment_stack` times
    [n; offset], whose last row starts the next segment. The numerators
    come in one of four forms, chosen from den by `_walk_branch`:

    * den divides 2^64: an (m, length, d) uint64 array, or int64 when
      centred. The matmul runs on uint64, and wrap-around mod 2^64 is exact
      mod den.
    * den = 2^k with k > 64: an (L, m, length, d) int64 array, the L
      limbs of W = LIMB_BITS bits of n 2^(K - k), least significant first,
      for K = L W the least multiple of W from k on. Scaling by 2^(K - k)
      commutes with the map, so the walk runs mod 2^K: one int64 matmul per
      limb layer of the stack, a carry pass by arithmetic shift, and a mask
      on the top limb. Every limb is in [0, 2^W) except the top one when
      centred, which is in [-2^(W-1), 2^(W-1)). `_segment_stack` checks
      that no limb sum can wrap int64.
    * den = 2^k q with q > 1 odd, den < 2^63 and 2d (q - 1)^2 < 2^63: an
      (m, length, d) int64 array. n mod 2^k walks as the uint64 form does
      and n mod q walks in int64 on `_residue_stack`, which checks that no
      residue sum can wrap; the two join by the Chinese remainder theorem.
    * den past that bound: an (m, length, d) object array of Python ints.

    `segment_floats` turns each form into the floats n / den.
    """
    exact, wrapped, limbs = _segment_stack(a, length)
    d, m = len(a), len(starts)
    branch = _walk_branch(den, d)
    if branch == "object":
        lo = den // 2 if centred else 0
        vec = np.array([[*start, *offset] for start in starts], dtype=object)
        while True:
            block = ((vec @ exact.T + lo) % den - lo).reshape(m, length + 1, d)
            vec[:, :d] = block[:, length]
            yield block[:, :length]
    if branch == "limbs":
        yield from _limb_segments(limbs, offset, starts, den.bit_length() - 1, length, centred)
    if branch == "crt":
        residues = _residue_stack(a, length, den >> _twos(den))
        yield from _crt_segments(wrapped, residues, offset, starts, den, length, centred)
    mask = np.uint64(den - 1)
    vec = np.array([[v % 2**64 for v in (*start, *offset)] for start in starts], dtype=np.uint64)
    while True:
        block = ((vec @ wrapped.T) & mask).reshape(m, length + 1, d)
        vec[:, :d] = block[:, length]
        points = block[:, :length]
        if not centred:
            yield points
        elif den == 2**64:
            yield points.view(np.int64)
        else:
            half = den // 2
            yield ((points + np.uint64(half)) & mask).astype(np.int64) - half


def _crt_segments(wrapped, residues, offset, starts, den: int, length: int, centred: bool):
    """The CRT form of `orbit_segments` for den = 2^k q within the CRT bound."""
    d, m = len(offset), len(starts)
    k = _twos(den)
    power, q = 1 << k, den >> k
    mask, inverse = np.uint64(power - 1), pow(power, -1, q)
    low = np.array([[v % power for v in (*start, *offset)] for start in starts], dtype=np.uint64)
    odd = np.array([[v % q for v in (*start, *offset)] for start in starts], dtype=np.int64)
    while True:
        r = ((low @ wrapped.T) & mask).reshape(m, length + 1, d)
        t = ((odd @ residues.T) % q).reshape(m, length + 1, d)
        low[:, :d], odd[:, :d] = r[:, length], t[:, length]
        r = r[:, :length].astype(np.int64)
        # n = r + 2^k ((n - r) 2^-k mod q); the product before the mod is
        # under max(q, 2^k) q = max(q^2, den) < 2^63
        nums = r + power * ((t[:, :length] - r) * inverse % q)
        if centred:
            nums -= den * (nums >= den - den // 2)
        yield nums


def _limb_segments(limbs, offset, starts, bits: int, length: int, centred: bool):
    """The limb form of `orbit_segments` for den = 2^bits."""
    count = -(-bits // LIMB_BITS)
    total = count * LIMB_BITS
    d, m = len(offset), len(starts)
    layers = limbs.transpose(0, 2, 1)   # (depth, 2d, rows), so that [n; offset] @ layer

    def split(rows):
        # (count, len(rows), k) limbs of the k-entry rows, scaled to 2^total
        scaled = [[(v << (total - bits)) % (1 << total) for v in row] for row in rows]
        return np.array([[[(v >> (LIMB_BITS * t)) & _LIMB_MASK for v in row] for row in scaled]
                         for t in range(count)], dtype=np.int64)

    def convolve(vec, columns):
        # the truncated product: stack limb t moves state limb s to s + t < count
        acc = np.matmul(vec, layers[0, columns])
        for t in range(1, min(len(layers), count)):
            acc[t:] += np.matmul(vec[: count - t], layers[t, columns])
        return acc

    vec = split(starts)
    # the offset's share of every segment is the same, so it is made once
    constant = convolve(split([offset]), slice(d, None))
    top = count - 1
    while True:
        acc = convolve(vec, slice(d)) + constant
        for t in range(top):
            acc[t + 1] += acc[t] >> LIMB_BITS
        acc &= _LIMB_MASK
        if centred:
            acc[top] = ((acc[top] + _LIMB_HALF) & _LIMB_MASK) - _LIMB_HALF
        acc = acc.reshape(count, m, length + 1, d)
        vec = acc[:, :, length]
        yield acc[:, :, :length]


def segment_floats(block: np.ndarray, den: int) -> np.ndarray:
    """The floats n / den of an `orbit_segments` block, each correctly rounded.

    Returns a C-contiguous float array of shape (m, length, d).
    """
    branch = _walk_branch(den, block.shape[-1])
    if branch == "object":
        return (block / den).astype(float, order="C")
    if branch == "crt":
        return _crt_floats(block, den)
    if branch == "uint64":
        # the cast rounds correctly and the power-of-two scale is exact
        return block.astype(float, order="C") * 2.0 ** (1 - den.bit_length())
    return _limb_floats(block)


def _crt_floats(block: np.ndarray, den: int) -> np.ndarray:
    """n / den of CRT numerators, correctly rounded, for den = 2^k q.

    With s = 64 - bitlen(den), |n| 2^s < 2^64 splits into Q q + rest, so
    |n| / den = (Q + rest / q) 2^-(k + s). As in `_limb_floats`, 2Q + sticky
    for rest > 0 rounds correctly once Q >= 2^53; smaller inexact elements
    go through Python ints.
    """
    k = _twos(den)
    shift = 64 - den.bit_length()
    scaled = np.abs(block).astype(np.uint64) << np.uint64(shift)
    whole, rest = np.divmod(scaled, np.uint64(den >> k))
    sticky = rest != 0
    out = ((whole << np.uint64(1)) | sticky).astype(float, order="C") * 2.0 ** -(k + shift + 1)
    np.negative(out, out=out, where=block < 0)
    small = sticky & (whole < np.uint64(2**53))
    if small.any():
        out[small] = [v / den for v in block[small].tolist()]
    return out


def _limb_floats(block: np.ndarray) -> np.ndarray:
    """n / 2^K of limb numerators, correctly rounded.

    The top three limbs form a 63-bit window w with n / 2^K = (w + f) 2^-63,
    f in [0, 1) from the lower limbs. Rounding |w + f| needs only |w| and a
    sticky bit for f > 0: 2|w| + sticky has a bit below the rounding point
    once |w| >= 2^53, and the uint64 -> float64 cast then rounds it
    correctly. Smaller elements (|n / 2^K| < 2^-10) go through Python ints.
    """
    w = LIMB_BITS
    window = (block[-1] << (2 * w)) + (block[-2] << w) + block[-3]
    sticky = block[:-3].any(axis=0)
    negative = window < 0
    # -(w + f) = (-w - 1) + (1 - f) with 1 - f in (0, 1) when f > 0
    magnitude = np.abs(window) - (negative & sticky)
    doubled = (magnitude.astype(np.uint64) << np.uint64(1)) | sticky
    out = doubled.astype(float, order="C") * 2.0**-64
    np.negative(out, out=out, where=negative)
    small = magnitude < 2**53
    if small.any():
        scale = 1 << (w * len(block))
        out[small] = [sum(v << (w * t) for t, v in enumerate(limbs)) / scale
                      for limbs in block[:, small].T.tolist()]
    return out


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

