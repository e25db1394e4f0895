"""Exception types shared across the package."""


class SuperchanError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SuperchanError, ValueError):
    """Matrix shape and declared system dimensions do not agree."""


class UnknownLabel(SuperchanError, KeyError):
    """A system label was requested that the operator does not carry."""


class NotHermitian(SuperchanError):
    """Operator fails the Hermiticity check at the working tolerance."""


class NotPSD(SuperchanError):
    """Operator has an eigenvalue below the negative tolerance."""


class NotTP(SuperchanError):
    """Channel fails the trace-preservation check."""


class NotIsometry(SuperchanError):
    """Matrix fails the isometry check V†V = 1."""


class NotAValidSuperchannel(SuperchanError):
    """Operator fails one of the CP / TP / no-signaling conditions."""


class ResidualTooLarge(SuperchanError):
    """A mandatory reconstruction check exceeded its tolerance."""


class IncompleteDecomposition(SuperchanError):
    """Separable terms do not assemble into a complete POVM."""


class DocumentError(SuperchanError):
    """Base class for on-disk document problems."""


class ParseError(DocumentError):
    """Document does not parse or violates the structural schema."""


class UnknownKind(DocumentError):
    """Document carries a kind this package does not know."""
