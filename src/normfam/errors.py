"""Exception types shared across the package."""


class NormfamError(Exception):
    """Base class for all package-specific errors."""


class DuplicateNodes(NormfamError):
    """Two interpolation nodes coincide within tolerance."""


class Overflow(NormfamError):
    """Re(p(z)) exceeds the safe exponent budget for the active precision."""


class NonPositiveM(NormfamError):
    """Estimated infimum of |h| is not positive."""


class OrderTooLow(NormfamError):
    """Derivative order outside the supported range."""


class CenterOffCircle(NormfamError):
    """Probe disk center does not lie on the unit circle."""


class PointTooCloseToCircle(NormfamError):
    """Decay probe point violates the distance-to-circle precondition."""


class InvariantViolation(NormfamError):
    """A constructed object failed its own consistency gate."""
