"""Small shared numerics: subspace geometry and report IO."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

KERNEL_CUTOFF = 1e-9   # kernel_basis: singular values at or under this share of the largest are zero


def _svd(a: np.ndarray, **kwargs):
    """np.linalg.svd, refusing NaN and inf: gesdd would return NaN singular values."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.svd(a, **kwargs)


def orthonormalize(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) for the column span of `basis`.

    Rank counts singular values above eps * max(M, N) * s.max(). The basis is
    Fortran-ordered as LAPACK writes it: layout sets the digits of products with it.
    """
    a = np.asarray(basis, dtype=float)
    u, s, _ = _svd(a, full_matrices=False)
    tol = np.amax(s, initial=0.0) * (np.finfo(float).eps * max(a.shape))
    return np.asfortranarray(u[:, : np.sum(s > tol, dtype=int)])


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between two column-span subspaces."""
    qa = orthonormalize(basis_a)
    qb = orthonormalize(basis_b)
    sv = np.clip(_svd(qa.T @ qb, compute_uv=False), -1.0, 1.0)
    return np.sort(np.arccos(sv))


def subspace_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle; a metric on the Grassmannian of equal dimensions."""
    return float(principal_angles(basis_a, basis_b).max(initial=0.0))


def contains_subspace(big: np.ndarray, small: np.ndarray, tol: float) -> bool:
    """True when every column of `small` lies within `tol` of span(big).

    Distance is measured as the residual norm of the unit vector after
    projecting onto span(big).
    """
    q = orthonormalize(big)
    for col in np.asarray(small, dtype=float).T:
        v = col / np.linalg.norm(col)
        resid = v - q @ (q.T @ v)
        if np.linalg.norm(resid) > tol:
            return False
    return True


def kernel_basis(rows: np.ndarray) -> np.ndarray:
    """Null-space basis (columns) of a stack of row covectors.

    Rank counts singular values above KERNEL_CUTOFF times the largest one;
    an all-zero stack has full-dimensional kernel.
    """
    _, sv, vt = _svd(np.atleast_2d(np.asarray(rows, dtype=float)))
    rank = np.sum(sv > KERNEL_CUTOFF * sv.max(initial=0.0))
    return vt[rank:].T.copy()


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; keeps report files byte-stable."""
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
