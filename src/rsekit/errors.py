"""Exception types shared across the package."""


class RsekitError(Exception):
    """Base class for all rsekit errors."""


class GameFormatError(RsekitError, ValueError):
    """Raised for malformed utility matrices or game files."""


class InvalidStrategyError(RsekitError, ValueError):
    """Raised when a probability vector is negative or does not sum to one."""


class MalformedLpError(RsekitError, ValueError):
    """Raised when an LP's coefficient vectors disagree with its variable count."""


class SolverFailure(RsekitError, RuntimeError):
    """Raised when an LP solve ends in a state the caller cannot interpret."""


class EnumerationCapExceeded(RsekitError, RuntimeError):
    """Raised when an enumeration (2^n region tuples, k-uniform anchors, curve grid points) exceeds its budget."""


class GapTooSmall(RsekitError, RuntimeError):
    """Raised when an algorithm requires an inducibility gap larger than the requested delta."""


class BudgetExceeded(RsekitError, RuntimeError):
    """Raised by guarded brute-force routines (lattice oracle, exact-cover check)."""


class RejectionCapExceeded(RsekitError, RuntimeError):
    """Raised when rejection sampling fails to produce a game meeting the requested constraint."""


class PerturbationBoundError(RsekitError, ValueError):
    """Raised when an estimated matrix violates the sup-norm bound a check requires."""
