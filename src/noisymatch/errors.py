"""Exception types shared across the package, and the checks of numbers and ids."""

import math
import numbers


class ConfigError(ValueError):
    """A configuration value is invalid; the message names the offending field."""


class OverdemandError(ConfigError):
    """Total college capacity is not strictly below the number of students."""


class DegenerateVarianceError(ValueError):
    """A maximum order statistic has zero sample variance (point-mass noise)."""


class InsufficientTailMassError(ValueError):
    """An empirical tail ratio has a zero-count denominator."""


class ReplicationError(RuntimeError):
    """A module error raised inside a Monte Carlo replication, with its index."""

    @classmethod
    def naming(cls, replications: range, error: Exception) -> "ReplicationError":
        """The error as raised by one replication, or by a stack of them."""
        if len(replications) == 1:
            where = f"replication {replications[0]}"
        else:
            where = f"replications {replications[0]}-{replications[-1]}"
        return cls(f"{where}: {error}")


def finite_number(value, field: str) -> float:
    """value as a float when it is a finite real number (a bool is not);
    otherwise a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{field}: must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{field}: must be finite, got {value!r}")
    return float(value)


def integer(value, field: str, *, least: int | None = None) -> int:
    """value as an int when it is an integer (a bool is not), and no less than
    ``least`` when one is given; else a ConfigError naming field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{field}: must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{field}: must be >= {least}, got {int(value)}")
    return int(value)


def identifier(value, field: str):
    """value as a college or coalition id: a string, an integer (a bool is
    not) or a finite float; otherwise a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Integral, float)):
        raise ConfigError(f"{field}: must be a number or a string, got {value!r}")
    return finite_number(value, field) if isinstance(value, float) else plain(value)


def plain(value):
    """value as the int it equals when it is a non-bool integer (a numpy one,
    say), as the float it equals when it is another real that is not a float
    (a numpy float32 or a Fraction), and else as given, so JSON writes it."""
    # an int first: the numbers checks are slow next to it
    keep = type(value) is int or isinstance(value, (bool, float))
    if keep or not isinstance(value, numbers.Real):
        return value
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def positive_integer(value) -> bool:
    # not a bool, nor inf or nan, whose remainder by 1 is nan
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and value % 1 == 0 and value >= 1
