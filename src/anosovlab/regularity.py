"""Bunching-style regularity checks for linear suspension cocycles.

For a suspension of a linear automorphism, the flow derivative restricted
to the invariant subbundles is diagonal in the spectral blocks, so the
sup-products controlling C^nu regularity of the stable and weak-stable
distributions are attained on eigendirections and evaluate in closed form
from the moduli. The tests check the closed forms against quasi-random
sphere sampling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .spectral import SpectralData

# bunching exponents nu = 0, 0.1, ..., 4 at which bunching_report evaluates
NU_GRID = tuple(np.round(np.arange(0.0, 4.0 + 1e-9, 0.1), 10))


class BunchingReport(NamedTuple):
    """Sup-products at time t and the largest grid nu keeping them below 1.

    weak_stable_sup(nu): sup |Dphi^t v_s| * |Dphi^-t v1_u| * |Dphi^t v2_u|^nu
    stable_sup(nu):      sup |Dphi^t v_s| * |Dphi^t v_u|^nu

    The first controls C^nu regularity of the weak-stable distribution, the
    second (stronger) the stable distribution.
    """

    t: float
    nu_grid: tuple[float, ...]
    weak_stable_sups: tuple[float, ...]
    stable_sups: tuple[float, ...]
    nu_max_weak: float | None
    nu_max_stable: float | None
    volume_product: float            # J^s * J^u per base return

    def weak_stable_sup(self, nu: float) -> float:
        return self.weak_stable_sups[self.nu_grid.index(nu)]

    def stable_sup(self, nu: float) -> float:
        return self.stable_sups[self.nu_grid.index(nu)]


def bunching_report(data: SpectralData, t: float) -> BunchingReport:
    """Closed-form sup-products for the linear suspension model, over NU_GRID.

    The flow time t is counted in base returns: the base map acts t times,
    so rates are moduli raised to the power t. Extremes over unit vectors
    sit on the weakest/strongest spectral blocks; complex pairs are exact
    rotation-scalings, contributing their modulus. The volume identity
    J^s J^u = 1 needs dim E^s = 1, so other bases raise NotCodimensionOne.
    A t so large that a rate power underflows to 0 or overflows to inf
    leaves some sup-product 0 * inf = NaN, and raises ValueError.
    """
    if t < 1:
        raise ValueError("t must cover at least one base return")
    steps = float(t)
    lam_max, xi_min, xi_max = data.lam, data.xi_min, data.xi_max

    weak, strong = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        for nu in NU_GRID:
            weak.append(lam_max**steps * xi_min ** (-steps) * xi_max ** (nu * steps))
            strong.append(lam_max**steps * xi_max ** (nu * steps))
    if not np.isfinite(weak + strong).all():
        raise ValueError(f"sup-products at t = {t:g} leave the float range")

    def grid_max(sups):
        best = None
        for nu, s in zip(NU_GRID, sups):
            if s < 1.0:
                best = nu
        return best

    volume_product = float(np.prod(data.moduli))
    return BunchingReport(
        t=float(t),
        nu_grid=tuple(float(nu) for nu in NU_GRID),
        weak_stable_sups=tuple(float(s) for s in weak),
        stable_sups=tuple(float(s) for s in strong),
        nu_max_weak=grid_max(weak),
        nu_max_stable=grid_max(strong),
        volume_product=volume_product,
    )
