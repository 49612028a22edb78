"""Numerical laboratory for suspension flows over hyperbolic toral automorphisms.

Subpackages by theme: exact spectral classification of the base
automorphism, trig-polynomial roofs with periodic obstructions and a
frequency-space coboundary solver, suspension-flow kinematics with
invariant-leaf series, temporal distance functions computed two ways with
their gradients and matching kernels, roof-bump perturbations with
holonomy-derivative checks, closed-form bunching regularity, and a
deterministic experiment CLI.
"""

import importlib

from .errors import (
    AnosovLabError,
    ChartExit,
    ConfigInvalid,
    DegenerateGradients,
    ExperimentFailed,
    NoIntersection,
    NonHyperbolicPeriod,
    NotCodimensionOne,
    NotHyperbolic,
    ObstructionNonzero,
    OffLeaf,
    ResidualBelowNoise,
    TruncationInsufficient,
)

_HOMES = {  # every other export -> its home module, imported on first access (PEP 562)
    "SuspensionFlow": "flow", "Quadrilateral": "pcf", "TranslationConjugacy": "pcf",
    "PeriodicOrbitRecord": "roof", "RoofFunction": "roof", "TrigPolynomial": "roof",
    "IntegerMatrix": "spectral", "SpectralData": "spectral", "spectral_data": "spectral",
}

__all__ = [
    "AnosovLabError",
    "ChartExit",
    "ConfigInvalid",
    "DegenerateGradients",
    "ExperimentFailed",
    "IntegerMatrix",
    "NoIntersection",
    "NonHyperbolicPeriod",
    "NotCodimensionOne",
    "NotHyperbolic",
    "ObstructionNonzero",
    "OffLeaf",
    "PeriodicOrbitRecord",
    "Quadrilateral",
    "ResidualBelowNoise",
    "RoofFunction",
    "SpectralData",
    "SuspensionFlow",
    "TranslationConjugacy",
    "TrigPolynomial",
    "TruncationInsufficient",
    "spectral_data",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
