"""The exact stable projector of `mpspec` against the 60-digit splitting it replaced.

`MPSplittingReference` in `tests/oracles.py` is the mpmath splitting:
all roots, eigenvectors by LU and an inverted frame. The integer
projector must give the same 2^-160 roundings bit for bit, onto E^s and
onto E^u, on every codimension-one base the lab runs in d=2 to d=5.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import MPSplittingReference

from anosovlab import intlinalg, mpspec
from anosovlab.spectral import IntegerMatrix

# The entries of enumerate_catalog(4, 1) and enumerate_catalog(5, 1), which
# take about 1.7 s to enumerate: the codimension-one companion bases.
CATALOG_D4_D5 = [
    (-1, -1, 0, 0, 1), (-1, -1, 1, -1, 1), (-1, 1, 0, 0, 1), (-1, 1, 1, 1, 1),
    (-1, -1, 1, -1, 0, 1), (-1, 0, 1, 1, 1, 1), (-1, 1, 0, 1, 0, 1), (-1, 1, 1, -1, 0, 1),
    (-1, 1, 1, 0, 0, 1), (-1, 1, 1, 0, 1, 1), (-1, 1, 1, 1, 0, 1), (-1, 1, 1, 1, 1, 1),
    (1, -1, -1, -1, 0, 1), (1, 0, -1, 1, -1, 1), (1, 1, -1, -1, 0, 1), (1, 1, -1, 0, -1, 1),
    (1, 1, -1, 0, 0, 1), (1, 1, -1, 1, -1, 1), (1, 1, -1, 1, 0, 1), (1, 1, 0, 1, 0, 1),
]

BASES = {
    "cat_map": IntegerMatrix([[2, 1], [1, 1]]),
    "companion3": IntegerMatrix.companion([-1, 0, 1, 1]),
    "quartic": IntegerMatrix.companion([1, 4, -4, -1, 1]),
    **{"catalog" + "_".join(map(str, c)): IntegerMatrix.companion(c) for c in CATALOG_D4_D5},
}


@pytest.mark.parametrize("name", list(BASES))
def test_projection_matches_mp_reference_bit_for_bit(name):
    matrix = BASES[name]
    split, reference = mpspec.splitting(matrix), MPSplittingReference(matrix)
    rng = np.random.default_rng(sum(map(ord, name)))
    # displacement-sized vectors, one with a zero entry, one far off any leaf
    vectors = [0.02 * rng.normal(size=matrix.dim) for _ in range(3)]
    vectors += [np.r_[0.0, rng.normal(size=matrix.dim - 1)], 3.0 * rng.normal(size=matrix.dim)]
    for v in vectors:
        for direction in ("stable", "unstable"):
            assert split.project(v, direction) == reference.project(v, direction)


def test_project_refuses_a_bad_direction():
    with pytest.raises(ValueError, match="direction must be 'stable' or 'unstable'"):
        mpspec.splitting(BASES["cat_map"]).project([0.1, 0.2], "weak")


def test_stable_root_needs_a_sign_change():
    coeffs = intlinalg.char_poly(BASES["companion3"].entries)
    with pytest.raises(ArithmeticError, match="sign change"):
        mpspec._stable_root(coeffs, 0.5)


def _correctly_rounded_sqrt(f: float, x: Fraction) -> bool:
    """f is sqrt(x) rounded to the nearest float, ties to even."""
    if f == 0.0:
        return x == 0
    lo = (Fraction(math.nextafter(f, 0.0)) + Fraction(f)) / 2
    hi = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    even = int(math.frexp(f)[0] * 2 ** 53) % 2 == 0   # the last bit of the 53-bit mantissa
    return (lo * lo < x or (lo * lo == x and even)) and (x < hi * hi or (x == hi * hi and even))


@pytest.mark.parametrize("num, den", [
    # perfect squares, of integers and of ratios
    (0, 1), (1, 1), (49, 1), ((3 ** 40) ** 2, 1), (9, 16), (25, 1 << 640),
    ((2 ** 60 + 7) ** 2, (2 ** 53 - 1) ** 2),
    # the midpoint 1 + 2^-53 squared (a tie, kept even at 1.0) and its neighbours
    ((2 ** 53 + 1) ** 2, 1 << 106), ((2 ** 53 + 1) ** 2 + 1, 1 << 106),
    ((2 ** 53 + 1) ** 2 - 1, 1 << 106),
    # a tie that rounds up to the even neighbour, and just under it
    ((2 ** 53 + 3) ** 2, 1 << 106), ((2 ** 53 + 3) ** 2 - 1, 1 << 106),
    # a squared distance over the (2^320 q.den)^2 of the backward check
    (0x1e3b5ad9c4 << 600, (11 << 320) ** 2),
])
def test_sqrt_ratio_is_correctly_rounded(num, den):
    f = intlinalg.sqrt_ratio(num, den)
    assert _correctly_rounded_sqrt(f, Fraction(num, den))


def test_sqrt_ratio_ties_and_seeded_ratios():
    assert intlinalg.sqrt_ratio((2 ** 53 + 1) ** 2, 1 << 106) == 1.0
    assert intlinalg.sqrt_ratio((2 ** 53 + 3) ** 2, 1 << 106) == 1.0 + 2.0 ** -51
    rng = np.random.default_rng(5)
    for bits in (8, 64, 200, 700):
        for _ in range(20):
            num = int.from_bytes(rng.bytes(bits // 8 + 1), "little") >> 3
            den = int.from_bytes(rng.bytes(bits // 8 + 1), "little") | 1
            assert _correctly_rounded_sqrt(intlinalg.sqrt_ratio(num, den), Fraction(num, den))


def test_round_shift_rounds_half_to_even():
    assert [intlinalg.round_shift(x, 2) for x in (2, 6, 10, -2, -6, 5, 7, -5)] == [
        0, 2, 2, 0, -2, 1, 2, -1]
    assert intlinalg.round_shift(5, 0) == 5
