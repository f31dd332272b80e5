"""Exception hierarchy shared by all btq modules.

The CLI maps these onto exit codes: invalid input -> 2, resource bound
exceeded -> 3, internal invariant violation -> 4.
"""


class BtqError(Exception):
    """Base class for all library errors."""


class InvalidInputError(BtqError):
    """Malformed or out-of-contract input (bad label, non-prime q, ...)."""


class SingularMatrixError(InvalidInputError):
    """A matrix that must be invertible over F_q((1/t)) is singular."""


class ResourceBoundError(BtqError):
    """An enumeration, size or predicted-work bound was exceeded."""


class InternalInvariantError(BtqError):
    """Two independent computations of the same quantity disagree, or an
    exact certificate of a result fails.

    Always a bug, never a user error.
    """
