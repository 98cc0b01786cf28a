"""Exception types shared across the package, and the one value rule for outside input."""

import math


class AmorlipError(Exception):
    """Base class for every error raised by this package."""


class ContractError(AmorlipError):
    """An argument violated a documented shape or value contract."""


class DomainError(AmorlipError):
    """Mathematically invalid input (empty reduction, non-positive scale, ...)."""


class DegenerateInputError(AmorlipError):
    """Input is well-formed but numerically unusable (zero-norm row, one-sample batch, ...)."""


class ConfigError(AmorlipError):
    """Bad configuration value or combination."""


# a checkpoint stores each config field and counter as a float64, exact below this
INT_LIMIT = 2**53


def check_value(what: str, name: str, value, kind: type, interval: str | None = None,
                stored: bool = False) -> None:
    """Raise a ConfigError naming what, name and value unless value has type
    kind (a float takes ints, only a bool takes bools, nothing is coerced),
    is finite if a float, is below 2**53 if stored and an int, and lies in
    interval: in "[1, inf)", [ and ] take an end in, ( and ) leave it out."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{what} {name!r} must be {kind.__name__}, got {value!r}")
    # an int as a float must fit a float64: 10**400 lies in (0, inf) as a Python int
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(f"{what} {name!r} must fit a float64 (magnitude at most"
                              " 1.8e308), got a larger integer") from None
        if not finite:
            raise ConfigError(f"{what} {name!r} must be finite, got {value!r}")
    elif stored and kind is int and value >= INT_LIMIT:
        # up to 20 digits print in full; a longer integer is named by its size
        got = value if value < 10**20 else f"2**{value.bit_length() - 1} or more"
        raise ConfigError(f"{what} {name!r} must be below 2**53, since a checkpoint stores it"
                          f" as a float64, got {got}")
    if interval is not None:
        low, high = (float(end) for end in interval[1:-1].split(","))
        above = low <= value if interval[0] == "[" else low < value
        if not (above and (value <= high if interval[-1] == "]" else value < high)):
            raise ConfigError(f"{what} {name!r} must lie in {interval}, got {value!r}")


class FormatError(AmorlipError):
    """Malformed binary file. Carries the byte offset of the failure when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class OracleError(AmorlipError):
    """The finite-difference oracle hit a non-finite evaluation."""


class TrainingDivergence(AmorlipError):
    """Training produced a non-finite loss. Carries a diagnostic snapshot."""

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot = dict(snapshot or {})
