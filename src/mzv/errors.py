"""Exception types shared across the package, and the checks that raise
them for numbers and JSON documents from outside."""

from __future__ import annotations

import json
from fractions import Fraction
from math import inf, isfinite, log10
from typing import Any, Collection, Mapping


class MzvError(Exception):
    """Base class for all errors raised by this package."""


class IndexParseError(MzvError, ValueError):
    """Malformed index text.  `position` is the 0-based column of the offense."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (column {position})")
        self.position = position


class AdmissibilityError(MzvError, ValueError):
    """An operation that needs a convergent index got a non-admissible one."""


class InvalidSpecError(MzvError, ValueError):
    """A nested-sum spec or evaluation request violates a structural constraint."""


class DivergentSeriesError(InvalidSpecError):
    """The requested nested sum does not converge; refused before summation."""


class PreconditionError(MzvError, ValueError):
    """Identity-checker parameters outside the identity's hypothesis."""


class ConfigError(MzvError, ValueError):
    """Malformed suite or CLI configuration."""


# ---------------------------------------------------------------------------
# checks of numbers from outside: spec fields, identity parameters, config values


def shown(value: object) -> str:
    """`repr(value)` cut short: an integer of more than 20 digits by its
    number of digits, a string of more than 40 characters by its first 20
    and its length, a fraction as `num/den` so shown, and a list or tuple
    of up to four items item by item (one of more items, or a list inside
    it, by its length)."""
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:20]!r}... (a string of {len(value)} characters)"
    if isinstance(value, Fraction):
        return f"{shown(value.numerator)}/{shown(value.denominator)}"
    if isinstance(value, (list, tuple)):
        if len(value) > 4:
            return f"a list of {len(value)} items"
        items = (f"a list of {len(v)} items" if isinstance(v, (list, tuple)) else shown(v) for v in value)
        return f"[{', '.join(items)}]"
    if not isinstance(value, int) or abs(value) < 10**20:
        return repr(value)
    n = abs(value)
    digits = int(log10(n))  # the float log may be one off near a power of ten
    digits += (n >= 10 ** (digits + 1)) - (n < 10**digits)
    return f"{'a negative' if value < 0 else 'an'} integer of {digits + 1} digits"


def check_int(
    value: object,
    name: str,
    minimum: int | None,
    maximum: int | None = None,
    error: type[MzvError] = InvalidSpecError,
) -> int:
    """`value` if it is an integer (not a bool) from `minimum` to `maximum`
    (either may be None); else `error`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be <= {maximum}, got {shown(value)}")
    return value


def check_real(
    value: object,
    name: str,
    minimum: float,
    strict: bool = False,
    error: type[MzvError] = InvalidSpecError,
) -> int | float | Fraction:
    """`value` itself if it is an int, float or Fraction (not a bool), finite
    as a float and at least (`strict`: above) `minimum`, which may be `-inf`;
    else `error`, also for an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise error(f"{name} must be a real number, got {shown(value)}")
    try:
        finite = isfinite(value)
    except OverflowError:  # an integer or fraction past the float range
        finite = False
    if not finite or (value <= minimum if strict else value < minimum):
        bound = f" and {'>' if strict else '>='} {minimum}" if minimum > -inf else ""
        raise error(f"{name} must be finite{bound}, got {shown(value)}")
    return value


def check_keys(
    value: Mapping,
    known: Collection,
    what: str = "unknown keys",
    error: type[MzvError] = PreconditionError,
    listed: bool = True,
) -> Mapping:
    """`value` if each of its keys is in `known`; else `error`, `what` and
    the other keys, each `shown`, then `known` when `listed`.  The other
    keys are listed strings first, in order, then the rest by their `repr`,
    so keys of mixed types are never compared with each other."""
    bad = value.keys() - known
    if bad:
        ordered = sorted(bad, key=lambda k: (0, k) if isinstance(k, str) else (1, repr(k)))
        shown_keys = ", ".join(map(shown, ordered))
        raise error(f"{what} [{shown_keys}]" + (f" (known: {list(known)})" if listed else ""))
    return value


def check_accuracy(value: object, name: str, error: type[MzvError]) -> float:
    """`value` as a float if it is a real number in (0, 1], as an accuracy
    target or a tolerance must be; else `error`."""
    v = float(check_real(value, name, 0.0, True, error))
    if v > 1.0:
        raise error(f"{name} must be in (0, 1], got {shown(value)}")
    return v


# ---------------------------------------------------------------------------
# JSON documents from outside: spec files, suite configs, `--ranges`


def parse_json(text: str, error: type[MzvError], what: str) -> Any:
    """`json.loads(text)`, raising `error` for text the parser refuses:
    malformed JSON or an integer literal past Python's digit limit (both
    `ValueError`), or nesting too deep for it (`RecursionError`)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def read_json(path: str, error: type[MzvError], what: str) -> Any:
    """The JSON document in the UTF-8 file at `path`, raising `error` for a
    file that cannot be opened or read, or is not UTF-8, and for text
    `parse_json` refuses; `what` names the file in the message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from None
    return parse_json(text, error, what)
