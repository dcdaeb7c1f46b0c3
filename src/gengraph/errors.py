"""Exception types shared across the package."""


class GengraphError(Exception):
    """Base class for all package errors."""


class GroupSpecError(GengraphError, ValueError):
    """Malformed group-spec text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CayleyFileError(GengraphError, ValueError):
    """Cayley-table file is malformed or violates the group laws."""


class OrderGuardError(GengraphError, ValueError):
    """A construction would exceed the configured maximum order."""


class GroupLawError(GengraphError, ValueError):
    """A multiplication table fails identity, inverse, or associativity."""


class NotNilpotentError(GengraphError, ValueError):
    """Nilpotent-only data was requested for a non-nilpotent group."""


class NotTwoGeneratedError(GengraphError, ValueError):
    """Operation requires a 2-generated group; more than 2 generators needed."""


class DominationUndefinedError(GengraphError, ValueError):
    """Some vertex has no possible dominator, so gamma_t is undefined."""


class NonIntegralRatioError(GengraphError, ValueError):
    """The degree-census quotient is not an integer (non-nilpotent input)."""


class ConstructionError(GengraphError, AssertionError):
    """An explicit witness construction failed its re-verification."""
