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


def clipped(text: str, keep: int = 40) -> str:
    """``text`` less all but its first and last ``keep`` characters: a message names a value, never echoes it whole."""
    return text if len(text) <= 2 * keep + 5 else f"{text[:keep]} ... {text[-keep:]}"


def as_int(value) -> int:
    """A JSON integer: an int, or a float with an integral value.

    Fractions, non-finite floats and bools raise instead of truncating.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError(f"expected an integer, got {value!r}")
    raise TypeError(f"expected an integer, got {type(value).__name__}")


def as_float(value) -> float:
    """A JSON number (an int or a float) as a float; bools and strings raise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, got {type(value).__name__}")


def as_object(value) -> dict:
    """A JSON object, as is."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def known_keys(section: dict, keys) -> dict:
    """``section`` as is, if it holds only ``keys``, the keys its reader
    reads: a misspelt key is refused, not read as its default.  Raises a
    :class:`FieldError` on the first other key."""
    for key in section:
        if key not in keys:
            raise FieldError(clipped(str(key)), f"unknown key; expected one of {', '.join(sorted(keys))}")
    return section


def required(section: dict, key: str):
    """``section[key]``; a missing key is a :class:`FieldError` on it."""
    if key not in section:
        raise FieldError(key, "required key is missing")
    return section[key]


def keyed(key: str, build, value):
    """``build(value)``, with a failure re-raised as a :class:`FieldError`
    on ``key``: a config value is read and checked under its own key.  A
    :class:`FieldError` from within keeps its own key, below ``key``."""
    try:
        return build(value)
    except FieldError as exc:
        raise FieldError(f"{key}.{exc.key}", exc.message) from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FieldError(key, clipped(str(exc))) from exc


class InvalidExponent(SllnLabError):
    """A moment exponent outside (0, 1] was passed to a sampler."""


class DivergentIntegral(SllnLabError):
    """A tail integral has an infinite (or budget-exceeding) remainder."""


class BoundViolation(SllnLabError):
    """A numerically evaluated series exceeded its analytic bound.

    Every bound checked in this package is a theorem for the built-in
    envelopes, but the evaluated value is a partial sum plus a remainder
    bound.  At a small truncation the remainder can dominate and exceed the
    bound on its own; the message shows both parts.  At the default
    truncation a violation signals an implementation bug.
    """


class SearchExhausted(SllnLabError):
    """An index search passed its cap without satisfying the target."""
