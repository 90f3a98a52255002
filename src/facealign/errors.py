"""Exception hierarchy shared across the package, and the type tests the
configuration classes and loaders use before raising."""

import math
from numbers import Integral, Real


class DataError(Exception):
    """Base for dataset / file format problems (CLI exit code 2)."""


class ParseError(DataError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(DataError):
    pass


class FormatError(DataError):
    pass


class NumericError(Exception):
    """Numerical failures (CLI exit code 3)."""


class FitError(NumericError):
    """Pose fitting failed (arity, degeneracy or divergence)."""


class InitError(NumericError):
    """Every robust-initialization hypothesis failed to fit."""


def is_int(value) -> bool:
    """An integer setting: Python or numpy int, but not bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real-number setting: int or float of any kind, but not bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A real number, as is_real, that is neither NaN nor infinite."""
    return is_real(value) and math.isfinite(value)


def real_range(name: str, value, low: float = float("-inf")) -> tuple[float, float]:
    """A (lo, hi) setting as a tuple of finite numbers, with
    low < lo <= hi; ValueError otherwise."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair (lo, hi), not {value!r}") from None
    if not (is_finite(lo) and is_finite(hi) and low < lo <= hi):
        raise ValueError(f"{name} must be a pair with {low} < lo <= hi, not {value!r}")
    return lo, hi
