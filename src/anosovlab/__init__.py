"""Numerical laboratory for suspension flows over hyperbolic toral automorphisms.

Subpackages by theme: exact spectral classification of the base
automorphism, trig-polynomial roofs with periodic obstructions and a
frequency-space coboundary solver, suspension-flow kinematics with
invariant-leaf series, temporal distance functions computed two ways with
their gradients and matching kernels, roof-bump perturbations with
holonomy-derivative checks, closed-form bunching regularity, and a
deterministic experiment CLI.
"""

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
from .flow import SuspensionFlow
from .pcf import Quadrilateral, TranslationConjugacy
from .roof import PeriodicOrbitRecord, RoofFunction, TrigPolynomial
from .spectral import IntegerMatrix, SpectralData, spectral_data

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
