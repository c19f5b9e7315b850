"""Exception types shared across the package, and the config reader that raises them."""

import math
import numbers
import reprlib

import numpy as np

# The largest integer any config field takes but the seed, and the largest
# exponent a matrix power takes: a bigger one would only overflow or never end.
INT_CEILING = 10**9


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


def config_value(value, name: str, kind, *, low: float = -math.inf,
                 high: float | None = None, strict: bool = False):
    """Read one config value as ``kind`` and range-check it.

    The kind is int, float, list (a rectangular nested list, read as a float
    array), [int] (a list of ints, each named by its index) or a tuple of
    choices, where int admits any int.  ``None`` means the field is missing.
    Only finite numbers are read, not strings, booleans (JSON true/false
    would read as 1/0), NaN, infinities or floats that int would change
    (2.5).  ``low`` and ``high`` are inclusive bounds, exclusive ones when
    ``strict``; ``high`` defaults to ``INT_CEILING`` for an int and to
    infinity otherwise.  Every error names the field.
    """
    if isinstance(kind, list):
        _require(isinstance(value, list), name, "must be a list")
        return [config_value(v, f"{name}[{i}]", *kind, low=low, high=high,
                             strict=strict) for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value in kind:
            return value
        _require(int in kind and not isinstance(value, str), name, "must be one of "
                 + ", ".join(getattr(c, "__name__", repr(c)) for c in kind))
        kind = int
    _require(value is not None, name, "missing")
    if high is None:
        high = INT_CEILING if kind is int else math.inf
    number = None
    try:
        leaves = np.array(value, dtype=object)  # a ragged list keeps lists as leaves
        if isinstance(value, list) == (kind is list) and all(
                issubclass(leaf_type, numbers.Real) and not issubclass(leaf_type, bool)
                for leaf_type in set(map(type, leaves.reshape(-1)))):
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


# Every config field: "section.key" -> (kind, default, range), read by
# ConfigSection through config_value; a default of None is none.
CONFIG_FIELDS = {
    "process.transition": (list, None, {}),
    "loss.kind": ((None, "memory-table", "discounted"), None, {}),
    "loss.losses": (list, None, {}),
    "loss.m": (int, None, {"low": 1}),
    "loss.table": (list, None, {}),
    "loss.gamma": (float, None, {"low": 0, "high": 1, "strict": True}),
    "loss.scale": (float, None, {"low": 0, "strict": True}),
    "loss.g_table": (list, None, {}),
    "learner.kind": (("gibbs", "erm"), "gibbs", {}),
    "learner.beta": (float, 1.0, {"low": 0}),
    "online.algorithm": (("ewa", "ftrl-sqnorm"), "ewa", {}),
    "online.eta": (float, 0.1, {"low": 0, "strict": True}),
    "online.delay": ((int, "auto-geometric", "auto-algebraic"), 1, {"low": 1}),
    "experiment.n": (int, None, {"low": 1}),
    "experiment.replicates": (int, 1, {"low": 1}),
    "experiment.delta": (float, 0.05, {"low": 0, "high": 1, "strict": True}),
    "experiment.seed": (int, 0, {"high": math.inf}),
    "experiment.d_grid": ([int], [], {"low": 1}),
    "experiment.d_max": (int, 30, {"low": 1}),
    "bounds.n": (int, None, {"low": 1}),
    "bounds.delta": (float, None, {"low": 0, "high": 1, "strict": True}),
    "bounds.regret": (float, 0.0, {}),
    "bounds.C": (float, 1.0, {"low": 0, "strict": True}),
    "bounds.phi_d": (float, None, {"low": 0}),
    "bounds.d": (int, None, {"low": 1}),
    "bounds.tau": (float, None, {"low": 0, "strict": True}),
    "bounds.r": (float, None, {"low": 0, "strict": True}),
    "bounds.kl": (float, None, {"low": 0}),
    "bounds.h_gap": (float, None, {"low": 0}),
    "bounds.eta": (float, None, {"low": 0, "strict": True}),
    "bounds.alpha": (float, 1.0, {"low": 0, "strict": True}),
    "bounds.B": (float, 1.0, {"low": 0}),
}


class ConfigSection(dict):
    """Read ``section``'s ``CONFIG_FIELDS`` rows that ``raw`` holds, null too, or
    defaults, with ``given`` values in raw's place; absent ones read as missing."""

    def __init__(self, raw, section: str, **given):
        _require(isinstance(raw, dict), section, "must be a JSON object")
        self.section = section
        for path, (kind, default, limits) in CONFIG_FIELDS.items():
            where, _, key = path.partition(".")
            value = raw.get(key, default) if given.get(key) is None else given[key]
            if where == section and (key in raw or value is not None):
                self[key] = config_value(value, path, kind, **limits)

    def __missing__(self, key: str):
        _require(False, f"{self.section}.{key}", "missing")
