from fractions import Fraction

import numpy as np
import pytest

import oracles
from anosovlab import flow as flow_module
from anosovlab import pcf, perturb
from anosovlab.flow import SuspensionFlow
from anosovlab.roof import RoofFunction, TrigPolynomial
from anosovlab.spectral import IntegerMatrix


@pytest.fixture(scope="session")
def cat_map():
    return IntegerMatrix([[2, 1], [1, 1]])


@pytest.fixture(scope="session")
def companion3():
    # x^3 + x^2 - 1: codimension one with a complex unstable pair
    return IntegerMatrix.companion([-1, 0, 1, 1])


@pytest.fixture(scope="session")
def quartic_real():
    # x^4 - x^3 - 4x^2 + 4x + 1: totally real, codimension one
    return IntegerMatrix.companion([1, 4, -4, -1, 1])


def const_roof(dim: int, value: float = 1.0) -> RoofFunction:
    return RoofFunction(TrigPolynomial.constant(value, dim))


def cos_roof(dim: int, amplitude: float = 0.1) -> RoofFunction:
    return RoofFunction(
        TrigPolynomial.constant(1.0, dim)
        + TrigPolynomial.cosine(amplitude, (1,) + (0,) * (dim - 1), dim)
    )


def seven_term_roof() -> RoofFunction:
    # three frequency pairs off the axes: the case where one gemm over a
    # segment does not reproduce the per-point dot products
    poly = TrigPolynomial.constant(1.0, 3)
    for amplitude, k in ((0.02, (1, 1, 0)), (0.03, (0, 2, 1)), (0.01, (1, -1, 1))):
        poly = poly + TrigPolynomial.cosine(amplitude, k, 3)
    return RoofFunction(poly)


@pytest.fixture(scope="session", params=["bundled", "seven_term"])
def segment_flow(request, companion3):
    """companion3 under the bundled pcf roof or a 7-term roof."""
    if request.param == "bundled":
        return SuspensionFlow(companion3, cos_roof(3, amplitude=0.05))
    return SuspensionFlow(companion3, seven_term_roof())


@pytest.fixture
def per_point_series(monkeypatch):
    """Run a computation with every roof series walked one point at a time.

    SEGMENT is 1 and each row method of TrigPolynomial is a loop over its
    per-point reference in `oracles`: the series as they were before
    segment batching.
    """
    def run(compute):
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "SEGMENT", 1)
            for point in ("evaluate", "gradient", "eval_diff", "gradient_diff"):
                method = getattr(oracles, point)
                patch.setattr(TrigPolynomial, f"{point}_rows", lambda self, *arrays, f=method: [
                    f(self, *row) for row in zip(*arrays)
                ])
            return compute()

    return run


@pytest.fixture(scope="session")
def kappa_setup(companion3):
    flow = SuspensionFlow(companion3, const_roof(3))
    return perturb.kappa_experiment(flow, n_points=25)


@pytest.fixture(scope="session")
def cat_flow(cat_map):
    return SuspensionFlow(cat_map, cos_roof(2))


@pytest.fixture(scope="session")
def companion3_flow(companion3):
    return SuspensionFlow(companion3, cos_roof(3))


@pytest.fixture(scope="session")
def companion3_const_flow(companion3):
    return SuspensionFlow(companion3, const_roof(3))


@pytest.fixture(scope="session")
def translated3(companion3_flow):
    # the x7 denominators of the planted subbundle translation: its orbits
    # walk on the CRT branch, or on Python ints past 2^63
    flow, _ = pcf.translate_flow(
        companion3_flow, [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)])
    return flow


def assert_close(actual, expected, tol, label=""):
    err = abs(actual - expected)
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err} > {tol}"


def rand_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)
