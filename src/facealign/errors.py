"""Exception hierarchy shared across the package, the one refusal of a
value that breaks its rule: "<name> must be <what>, not <value>", and the
one opener of text inputs, which names a file that is not UTF-8.

A rule is a (test, what) pair: test(value) is true for a valid value. A
config class states each field's rule with ``setting`` and calls
``check``; a single value goes through ``require``.
"""

import sys
from contextlib import contextmanager
from dataclasses import field, fields
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


@contextmanager
def open_text(path):
    """path opened to read UTF-8 text; a byte that is not UTF-8 raises
    FormatError naming path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


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
    """A real number, as is_real, in the float range: not NaN, inf or an int past it."""
    return is_real(value) and abs(value) <= sys.float_info.max


def has_finite_width(lo, hi) -> bool:
    """lo, hi and hi - lo all finite: numpy draws uniformly only from such a range."""
    return is_finite(lo) and is_finite(hi) and is_finite(hi - lo)


def real_range(name: str, value, low: float = float("-inf")) -> tuple[float, float]:
    """A (lo, hi) setting of finite width (has_finite_width) as a tuple,
    with low < lo <= hi; ValueError otherwise."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair (lo, hi), not {value!r}") from None
    if not (has_finite_width(lo, hi) and low < lo <= hi):
        raise ValueError(f"{name} must be a pair {low} < lo <= hi of finite width, not {value!r}")
    return lo, hi


def require(name: str, value, rule, error=ValueError):
    """value, or error("<name> must be <what>, not <value!r>") when it
    fails rule."""
    test, what = rule
    if not test(value):
        raise error(f"{name} must be {what}, not {value!r}")
    return value


def setting(default, rule):
    """A dataclass field with this default, whose value ``check`` tests
    against rule; a dict default is copied for each instance."""
    kind = ({"default_factory": lambda: dict(default)} if isinstance(default, dict)
            else {"default": default})
    return field(**kind, metadata={"rule": rule})


def check(obj, error=ValueError) -> None:
    """Refuse, through ``require``, the first field of dataclass obj, in
    declaration order, whose value fails its ``setting`` rule."""
    for f in fields(obj):
        if "rule" in f.metadata:
            require(f.name, getattr(obj, f.name), f.metadata["rule"], error)


def at_least(n: int):
    """An integer, not a bool, >= n."""
    return lambda v: is_int(v) and v >= n, f"an integer >= {n}"


def one_of(values):
    """One of values."""
    return lambda v: v in values, f"one of {list(values)}"


def is_a(kind: type, what: str):
    """An instance of kind, as what names it."""
    return lambda v: isinstance(v, kind), what


def or_none(rule):
    """rule, or None (JSON null)."""
    test, what = rule
    return lambda v: v is None or test(v), f"{what} or null"


INTEGER = is_int, "an integer"
NUMBER = is_real, "a number"
FINITE = is_finite, "a finite number"
POSITIVE = (lambda v: is_finite(v) and v > 0), "a finite number > 0"
NON_NEGATIVE = (lambda v: is_finite(v) and v >= 0), "a finite number >= 0"
# the v of a range (-v, v), of finite width as real_range's
HALF_WIDTH = (lambda v: is_real(v) and v >= 0 and has_finite_width(-v, v)), \
    "a finite number >= 0 with (-v, v) of finite width"
UNIT = (lambda v: is_real(v) and 0 <= v <= 1), "a number in [0, 1]"
FRACTION = (lambda v: is_real(v) and 0 < v <= 1), "a number in (0, 1]"
BOOL = is_a(bool, "true or false")
STRING = is_a(str, "a string")
