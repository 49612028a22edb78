import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyroots

from oracles import inverse_rational
from test_mpspec import BASES

from anosovlab import intlinalg
from anosovlab.errors import NotCodimensionOne, NotHyperbolic
from anosovlab.experiments import ExperimentConfig, run_experiment
from anosovlab.spectral import (
    IntegerMatrix,
    _companion_roots,
    enumerate_catalog,
    invariant_unstable_subspaces,
    spectral_data,
    spectral_gap_condition,
)

PLASTIC = 0.7548776662466927  # real root of x^3 + x^2 - 1


def cofactor_charpoly_2x2(m):
    # det(xI - M) expanded by hand: x^2 - tr x + det
    (a, b), (c, d) = m
    return [a * d - b * c, -(a + d), 1]


class TestCharacteristicPolynomial:
    def test_cat_map_matches_cofactor_oracle(self, cat_map):
        assert intlinalg.char_poly(cat_map.entries) == cofactor_charpoly_2x2(
            [[2, 1], [1, 1]]
        )
        assert intlinalg.char_poly(cat_map.entries) == [1, -3, 1]

    def test_identity(self):
        ident = IntegerMatrix([[1, 0], [0, 1]])
        assert intlinalg.char_poly(ident.entries) == [1, -2, 1]

    def test_companion_reproduces_its_polynomial(self):
        coeffs = [-1, 0, 1, 1]
        assert intlinalg.char_poly(IntegerMatrix.companion(coeffs).entries) == coeffs

    def test_constant_term_is_signed_determinant(self, quartic_real):
        coeffs = intlinalg.char_poly(quartic_real.entries)
        d = quartic_real.dim
        assert coeffs[0] == (-1) ** d * intlinalg.det(quartic_real.entries)


class TestIntegerMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            IntegerMatrix([[2, 0], [0, 1]])

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1]])

    @pytest.mark.parametrize("rows", [[[2, 1]], [[2, 1], [1]], []])
    def test_rejects_non_square_or_empty(self, rows):
        with pytest.raises(ValueError, match="square and non-empty"):
            intlinalg.as_int_matrix(rows)

    def test_rejects_negative_power(self, cat_map):
        with pytest.raises(ValueError, match="negative powers"):
            intlinalg.mat_pow(cat_map.entries, -1)

    @pytest.mark.parametrize("coeffs, message", [
        ([-1, 0, 1, 2], "monic"),
        ([1], "degree must be at least 1"),
    ])
    def test_companion_refusals(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            intlinalg.companion(coeffs)

    @pytest.mark.parametrize("name", list(BASES))
    def test_inverse_entries_match_gauss_jordan(self, name):
        matrix = BASES[name]
        inverse = matrix.inverse_entries()
        assert [list(row) for row in inverse] == inverse_rational(matrix.entries)
        assert intlinalg.mat_mul(matrix.entries, inverse) == intlinalg.identity(matrix.dim)


class TestSpectralData:
    def test_cat_map_moduli_match_quadratic_formula(self, cat_map):
        data = spectral_data(cat_map)
        lo = (3 - math.sqrt(5)) / 2
        hi = (3 + math.sqrt(5)) / 2
        assert data.moduli == pytest.approx((lo, hi), abs=1e-12)
        assert data.codimension_one
        assert not data.complex_unstable_pair

    def test_identity_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            spectral_data(IntegerMatrix([[1, 0], [0, 1]]))

    def test_rotation_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            spectral_data(IntegerMatrix([[0, -1], [1, 0]]))

    def test_companion3_moduli_against_root_oracle(self, companion3):
        # real root of the exact polynomial at 40 digits, pair modulus from
        # the unit determinant
        with mpmath.workdps(40):
            root = float(mpmath.findroot(lambda x: x**3 + x**2 - 1, mpmath.mpf("0.75")))
        data = spectral_data(companion3)
        assert data.moduli[0] == pytest.approx(root, abs=1e-13)
        assert data.moduli[1] == pytest.approx(math.sqrt(1 / root), abs=1e-13)
        assert data.moduli[2] == data.moduli[1]
        assert data.codimension_one and data.complex_unstable_pair

    def test_eigen_residuals(self, companion3, quartic_real):
        for matrix in (companion3, quartic_real):
            data = spectral_data(matrix)
            coeffs = intlinalg.char_poly(matrix.entries)
            for z in data.eigenvalues:
                val = sum(c * z**k for k, c in enumerate(coeffs))
                assert abs(val) <= 1e-10

    def test_product_of_moduli_is_one(self, cat_map, companion3, quartic_real):
        for matrix in (cat_map, companion3, quartic_real):
            data = spectral_data(matrix)
            assert np.prod(data.moduli) == pytest.approx(1.0, abs=1e-12)

    def test_block_bases_are_invariant(self, companion3):
        data = spectral_data(companion3)
        arr = companion3.as_array()
        for block in data.blocks:
            image = arr @ block.basis
            coords, *_ = np.linalg.lstsq(block.basis, image, rcond=None)
            assert np.linalg.norm(block.basis @ coords - image) < 1e-10

    def test_deterministic_reports(self, companion3):
        a = spectral_data(companion3)
        b = spectral_data(companion3)
        assert a.moduli == b.moduli
        assert a.eigenvalues == b.eigenvalues
        assert np.array_equal(a.stable_basis, b.stable_basis)
        assert np.array_equal(a.unstable_basis, b.unstable_basis)


class TestSpectralGap:
    def test_companion3_report(self, companion3):
        report = spectral_gap_condition(spectral_data(companion3))
        mu = 1.0 / PLASTIC
        assert report.mu == pytest.approx(mu, abs=1e-12)
        assert report.xi_1 == report.xi_l
        # xi = sqrt(mu), so lhs = 3/4 log(mu)^2 and rhs vanishes exactly
        assert report.lhs == pytest.approx(0.75 * math.log(mu) ** 2, abs=1e-12)
        assert report.lhs == pytest.approx(0.0593049, abs=1e-6)
        assert report.rhs == 0.0
        assert report.satisfied

    def test_equal_unstable_moduli_gives_zero_rhs(self, companion3):
        report = spectral_gap_condition(spectral_data(companion3))
        assert report.rhs == 0.0 and report.lhs > 0.0

    def test_requires_codimension_one(self):
        # block-diagonal cat (+) cat has a 2-dимensional stable bundle
        m = IntegerMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
        with pytest.raises(NotCodimensionOne):
            spectral_gap_condition(spectral_data(m))

    def test_catalog_contains_a_counterexample(self):
        entries = enumerate_catalog(4, 3)
        failing = [e for e in entries if not e.gap.satisfied]
        assert failing, "expected some d=4 catalog entry violating the inequality"


class TestInvariantSubspaces:
    def test_complex_pair_has_none(self, companion3):
        catalog = invariant_unstable_subspaces(spectral_data(companion3))
        assert len(catalog.subspaces) == 0

    def test_three_real_lines_give_six(self, quartic_real):
        catalog = invariant_unstable_subspaces(spectral_data(quartic_real))
        dims = sorted(b.shape[1] for b in catalog.subspaces)
        assert dims == [1, 1, 1, 2, 2, 2]

    def test_count_law(self, cat_map, companion3, quartic_real):
        for matrix in (cat_map, companion3, quartic_real):
            data = spectral_data(matrix)
            k = len(data.unstable_blocks())
            catalog = invariant_unstable_subspaces(data)
            assert len(catalog.subspaces) == 2**k - 2

    def test_cat_plus_cat_is_refused(self):
        # a repeated eigenvalue with a plane of eigenvectors would make the
        # catalog infinite; it takes two stable roots, so it is never codim one
        m = IntegerMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
        with pytest.raises(NotCodimensionOne):
            invariant_unstable_subspaces(spectral_data(m))

    @pytest.mark.parametrize("d, coeff_bound", [(3, 3), (4, 2), (5, 1)])
    def test_codimension_one_spectra_are_simple(self, d, coeff_bound):
        # the catalog sums single blocks because no codimension-one base
        # has a repeated root
        entries = enumerate_catalog(d, coeff_bound)
        assert entries
        assert all(b.multiplicity == 1 for e in entries for b in e.data.blocks)

    def test_invariance_residuals(self, quartic_real):
        data = spectral_data(quartic_real)
        arr = quartic_real.as_array()
        for sub in invariant_unstable_subspaces(data).subspaces:
            image = arr @ sub
            coords, *_ = np.linalg.lstsq(sub, image, rcond=None)
            assert np.linalg.norm(sub @ coords - image) <= 1e-10


class TestCatalog:
    def test_d2_bound3_contains_cat_polynomial(self):
        entries = enumerate_catalog(2, 3)
        assert any(e.coeffs == (1, -3, 1) for e in entries)

    def test_d3_bound1_contains_plastic_with_complex_pair(self):
        entries = enumerate_catalog(3, 1)
        match = [e for e in entries if e.coeffs == (-1, 0, 1, 1)]
        assert match and match[0].data.complex_unstable_pair

    def test_d2_bound0_empty(self):
        assert enumerate_catalog(2, 0) == []

    def test_d6_refused(self):
        with pytest.raises(ValueError, match="d must be one of 2, 3, 4, 5"):
            enumerate_catalog(6, 1)

    def test_ordering_is_lexicographic(self):
        entries = enumerate_catalog(2, 2)
        assert [e.coeffs for e in entries] == sorted(e.coeffs for e in entries)

    def test_every_entry_certified(self):
        for e in enumerate_catalog(3, 2):
            assert np.prod(e.data.moduli) == pytest.approx(1.0, abs=1e-12)
            coeffs = e.coeffs
            for z in e.data.eigenvalues:
                assert abs(sum(c * z**k for k, c in enumerate(coeffs))) <= 1e-10

    def test_determinism(self):
        a = enumerate_catalog(3, 1)
        b = enumerate_catalog(3, 1)
        assert [e.coeffs for e in a] == [e.coeffs for e in b]
        assert [e.gap for e in a] == [e.gap for e in b]

    def test_csv_export(self, tmp_path):
        entries = enumerate_catalog(2, 1)
        cfg = ExperimentConfig.from_dict({"kind": "catalog", "params": {"d": 2, "coeff_bound": 1}})
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "catalog.csv").read_text().strip().splitlines()
        assert lines[0] == "poly_coeffs,d,moduli,codim_one,complex_pair,mu,xi1,xil,lhs,rhs,satisfied"
        assert len(lines) == 1 + len(entries)
        # one row per entry, in catalog order
        assert [line.split(",")[0] for line in lines[1:]] == [
            " ".join(str(c) for c in e.coeffs) for e in entries
        ]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    st.sampled_from([-1, 1]),
)
def test_hyperbolic_companions_have_unit_modulus_product(mids, const):
    coeffs = [const, *mids, 1]
    matrix = IntegerMatrix.companion(coeffs)
    try:
        data = spectral_data(matrix)
    except NotHyperbolic:
        return
    assert np.prod(data.moduli) == pytest.approx(1.0, abs=1e-12)
    total = sum(
        2 if b.is_complex_pair else 1
        for b in data.blocks
        for _ in range(b.multiplicity)
    )
    assert total == matrix.dim


@pytest.mark.parametrize("deg", [2, 3, 4, 5])
def test_companion_roots_equal_polyroots_bit_for_bit(deg):
    """The package's companion matrix is polycompanion's, so its eigenvalues
    are the roots numpy.polynomial gives, to the last bit."""
    mismatches = []
    for const in (-1, 1):
        for mids in itertools.product(range(-2, 3), repeat=deg - 1):
            cf = [float(const), *map(float, mids), 1.0]
            ours, theirs = _companion_roots(cf), polyroots(cf)
            if ours.dtype != theirs.dtype or ours.tobytes() != theirs.tobytes():
                mismatches.append(cf)
    assert mismatches == []
