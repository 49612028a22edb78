"""Subspace helpers of anosovlab.util: rank rules, refusals, import cost."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab.util import kernel_basis, orthonormalize, principal_angles

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


def _kernel_basis_reference(linalg, rows, rel_cutoff=1e-9):
    # the scipy.linalg.svd form the helper had before it moved to numpy
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[1]
    _, sv, vt = linalg.svd(rows)
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sv > rel_cutoff * sv[0]))
    return vt[rank:].T.copy() if rank < n else np.zeros((n, 0))


def _principal_angles_reference(linalg, basis_a, basis_b):
    qa, qb = linalg.orth(basis_a), linalg.orth(basis_b)
    sv = np.clip(linalg.svd(qa.T @ qb, compute_uv=False), -1.0, 1.0)
    return np.sort(np.arccos(sv))


def _layout(x):
    return x.flags.c_contiguous, x.flags.f_contiguous


@st.composite
def _matrices(draw):
    """Full-rank, rank-deficient and zero matrices up to 4x4, scaled 1e-5..1e4."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rank = draw(st.integers(0, min(m, n)))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    left = np.array(draw(st.lists(entries, min_size=m * rank, max_size=m * rank)))
    right = np.array(draw(st.lists(entries, min_size=rank * n, max_size=rank * n)))
    a = left.reshape(m, rank) @ right.reshape(rank, n)
    if draw(st.booleans()) and n > 1:
        a[:, -1] = a[:, 0]  # an exact repeat, rank-deficient in every digit
    return a * 10.0 ** draw(st.integers(-5, 4))


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_numpy_svd_helpers_match_scipy_bit_for_bit(scipy_linalg, a):
    # equal layout too: a product with the basis reduces in an order set
    # by its memory layout, so equal values alone would not keep the digits
    q, q_ref = orthonormalize(a), scipy_linalg.orth(a)
    assert q.shape == q_ref.shape and _layout(q) == _layout(q_ref)
    assert np.array_equal(q, q_ref)
    k, k_ref = kernel_basis(a), _kernel_basis_reference(scipy_linalg, a)
    assert k.shape == k_ref.shape and _layout(k) == _layout(k_ref)
    assert np.array_equal(k, k_ref)
    b = a[:, :1] + 1.0
    assert np.array_equal(
        principal_angles(a, b), _principal_angles_reference(scipy_linalg, a, b)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_refused(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ValueError):
        orthonormalize(a)
    with pytest.raises(ValueError):
        kernel_basis(a)
    with pytest.raises(ValueError):
        principal_angles(a, np.eye(3))
    with pytest.raises(ValueError):
        principal_angles(np.eye(3), a)


def test_zero_matrix_has_empty_span_and_full_kernel():
    zero = np.zeros((3, 2))
    assert orthonormalize(zero).shape == (3, 0)
    assert kernel_basis(zero.T).shape == (3, 3)


def test_package_import_leaves_scipy_unloaded():
    # scipy's import alone used to be most of a run's start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, anosovlab.cli, anosovlab.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
