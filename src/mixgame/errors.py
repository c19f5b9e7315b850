"""Exception types shared across the package, and the config reader that raises them."""

import math
import numbers
import reprlib

import numpy as np


class MixgameError(Exception):
    """Base class for all package errors."""


class ValidationError(MixgameError, ValueError):
    """Bad user input: malformed matrix, config field out of range, etc."""


class ModelError(MixgameError):
    """A model is structurally unusable (e.g. no unique stationary law)."""


class SizeError(MixgameError):
    """An exact enumeration would exceed its configured cap."""


class ProtocolError(MixgameError):
    """An online learner violated the game protocol (non-simplex play)."""


class ConsistencyError(MixgameError):
    """An exact algebraic identity failed beyond tolerance."""


def _require(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ValidationError(f"config field {name!r}: {msg}")


def build_field(name: str, build, *args):
    """``build(*args)``, reporting a ValidationError as one of config field ``name``."""
    try:
        return build(*args)
    except ValidationError as err:  # the message is built only on failure
        raise ValidationError(f"config field {name!r}: {err}") from None


def config_value(value, name: str, kind: type, *, low: float = -math.inf,
                 high: float = math.inf, strict: bool = False):
    """Read one config value as ``kind`` (int, float, or list) and range-check it.

    ``None`` means the field is missing.  Only finite numbers are read, not
    strings, booleans (JSON true/false would read as 1/0), NaN, infinities or
    floats that int would change (2.5); list reads a rectangular nested list
    as a float array.  ``low`` and ``high`` are inclusive bounds, exclusive
    ones when ``strict``.  Every error names the field.
    """
    _require(value is not None, name, "missing")
    number = None
    try:
        leaves = np.array(value, dtype=object)  # a ragged list keeps lists as leaves
        if isinstance(value, list) == (kind is list) and all(
                issubclass(leaf_type, numbers.Real) and not issubclass(leaf_type, bool)
                for leaf_type in set(map(type, leaves.flat))):
            number = leaves.astype(float) if kind is list else kind(value)
    except (ValueError, OverflowError):  # non-finite as int, huge int as float
        pass
    readable = number is not None and (
        number == value if kind is int else np.all(np.isfinite(number)))
    if not readable:  # the message is built only on failure: a long list is slow
        what = "a rectangular list of finite numbers" if kind is list else kind.__name__
        raise ValidationError(f"config field {name!r}: cannot read "
                              f"{reprlib.repr(value)} as {what}")
    inside = ((low < number) & (number < high) if strict
              else (low <= number) & (number <= high))
    left, right = ("(", ")") if strict else ("[", "]")
    _require(np.all(inside), name, f"must lie in {left}{low}, {high}{right}")
    return number
