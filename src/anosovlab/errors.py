"""Exception types shared across the package."""


class AnosovLabError(Exception):
    """Base class for all package-specific errors."""


class NotHyperbolic(AnosovLabError):
    """Some eigenvalue modulus is within certified error of 1."""


class NotCodimensionOne(AnosovLabError):
    """Operation requires exactly one contracting eigenvalue."""


class NonHyperbolicPeriod(AnosovLabError):
    """det(M^n - I) = 0, so period-n points are not isolated."""


class ObstructionNonzero(AnosovLabError):
    """Periodic averages spread too far: no coboundary solution exists."""


class TruncationInsufficient(AnosovLabError):
    """A truncation missed its certificate: a certified series ran past its
    term cap, or a coboundary residual did not improve when the frequency
    cutoff doubled."""


class OffLeaf(AnosovLabError):
    """Displacement has a component transverse to the requested subspace."""


class NoIntersection(AnosovLabError):
    """Leaf intersection could not be located inside the chart."""


class DegenerateGradients(AnosovLabError):
    """Supplied PCF gradients do not span enough directions."""


class ChartExit(AnosovLabError):
    """A stable-graph point lies outside the section chart box."""


class ResidualBelowNoise(AnosovLabError):
    """All measured residuals sit below the double-precision noise floor."""


class ConfigInvalid(AnosovLabError):
    """Experiment configuration failed validation."""


class ExperimentFailed(AnosovLabError):
    """An experiment aborted with a module-level error."""
