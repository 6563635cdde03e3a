"""Exception types shared across the package."""


class NormfamError(Exception):
    """Base class for all package-specific errors."""


class DuplicateNodes(NormfamError):
    """Two interpolation nodes coincide within tolerance."""


class Overflow(NormfamError):
    """Binary64 cannot hold the work: an order above forge.MAX_ORDER, whose
    grid kernels overflow (log_c_star, so construct), or a grid log of
    +inf or NaN (grid)."""


class NonPositiveM(NormfamError):
    """Estimated infimum of |h| is not positive."""


class CenterOffCircle(NormfamError):
    """Probe disk center does not lie on the unit circle."""


class PointTooCloseToCircle(NormfamError):
    """Decay probe point violates the distance-to-circle precondition."""


class InvariantViolation(NormfamError):
    """A constructed object failed its own consistency gate."""
