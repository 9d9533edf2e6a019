"""Exception types shared across the package."""


class GoebelError(Exception):
    """Base class for all library errors."""


class DomainError(GoebelError):
    """Raised when an argument is outside an operation's documented domain."""


class InconsistentConstraints(GoebelError):
    """Raised when sign propagation contradicts itself.

    The underlying constraint systems are provably consistent, so this
    always signals an implementation bug rather than bad input.
    """


class NoWitness(GoebelError):
    """Raised when a theorem verification fails to find a required witness."""
