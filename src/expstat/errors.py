"""Exception hierarchy for expstat.

Every error raised deliberately by this package derives from ExpstatError,
so callers can catch the whole family with one clause.  DomainError doubles
as a ValueError for ergonomic use with generic argument-validation code.
"""


class ExpstatError(Exception):
    """Base class for all expstat errors."""


class DomainError(ExpstatError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapacityError(ExpstatError):
    """A request exceeds a documented size limit (for example subset enumeration)."""


class ContractError(ExpstatError):
    """An input object violates a stated contract (for example a non-density mixture)."""


class NumericalError(ExpstatError):
    """A numerical routine failed to reach its accuracy target."""
