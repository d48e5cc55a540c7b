"""Exception hierarchy shared across the package."""


class RicciDiskError(Exception):
    """Base class for all package errors."""


class UsageError(RicciDiskError):
    """Invalid input: a config file, a spec, or arguments outside a contract."""


class DomainError(RicciDiskError):
    """A mathematical precondition failed (e.g. log of R <= 0, unsolvable Neumann data)."""


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
