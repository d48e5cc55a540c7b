"""Exception hierarchy shared across the package."""


class RicciDiskError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RicciDiskError):
    """Invalid grid spec, schedule, or experiment configuration."""


class UsageError(RicciDiskError):
    """An operation was called with arguments outside its contract."""


class DomainError(RicciDiskError):
    """A mathematical precondition failed (e.g. log of a nonpositive field)."""


class CompatibilityError(RicciDiskError):
    """The Neumann Poisson data violate solvability: int rho dv_g is not 0."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SolverError(RicciDiskError):
    """The linear solver failed to reach the requested tolerance."""


class PositivityError(RicciDiskError):
    """Scalar curvature positivity was lost or absent."""

    def __init__(self, message, min_r=None):
        super().__init__(message)
        self.min_r = min_r


class AmplitudeError(RicciDiskError):
    """A perturbation amplitude destroys curvature positivity."""

    def __init__(self, message, max_epsilon=None):
        super().__init__(message)
        self.max_epsilon = max_epsilon
