"""Exception hierarchy shared across the package."""


class SllnLabError(Exception):
    """Base class for all package errors."""


class ConfigError(SllnLabError):
    """A config file failed to parse or a field failed validation."""


class FieldError(ValueError):
    """A config value that is malformed or out of range, named by its key
    within the section that read it."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message


class ScheduleRejected(SllnLabError):
    """A moment schedule violates positivity, the (0,1] range, or monotonicity."""


class InvalidExponent(SllnLabError):
    """A moment exponent outside (0, 1] was passed to a sampler."""


class DivergentIntegral(SllnLabError):
    """A tail integral has an infinite (or budget-exceeding) remainder."""


class BoundViolation(SllnLabError):
    """A numerically evaluated series exceeded its analytic bound.

    This signals an implementation bug, not a mathematical failure: every
    bound checked in this package is a theorem for the built-in envelopes.
    """


class SearchExhausted(SllnLabError):
    """An index search passed its cap without satisfying the target."""
