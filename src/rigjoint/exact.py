"""Exact-arithmetic substrate: probability parsing, the exact/float switch, message text.

Every probability computation in this package runs entirely in one arithmetic
mode: exact or double precision (``float``). Exact mode is the default and the
only mode for pmfs: with p = a/b it carries integers over the common
denominator b^(n*m) from the moment table to the law's counts, and hands
results out as ``fractions.Fraction``. Float mode covers point evaluation of
generating functions and moments only, at sizes where big integers get
expensive. The two are never mixed inside a computation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Union

# A value carried by one arithmetic mode. Plain ints are welcome in either
# mode and promote losslessly.
Scalar = Union[Fraction, float, int]


class Mode(Enum):
    """Arithmetic mode of a whole computation."""

    EXACT = "exact"
    FLOAT = "float"


class SizeCapError(Exception):
    """A computation exceeds a fixed size bound, such as one stated in ``cli._admit``."""


def parse_probability(text: str) -> Fraction:
    """Parse "a/b" or a finite decimal string into an exact probability.

    Decimals are read exactly as digits over a power of ten, so "0.1" means
    1/10, not the nearest binary double.
    """
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid probability: {text!r}") from exc
    if not 0 <= value <= 1:
        raise ValueError(f"probability outside [0, 1]: {text!r}")
    return value


def as_scalar(value: Scalar, mode: Mode) -> Scalar:
    """Coerce a number onto the carrier type of ``mode``.

    Floats are rejected in exact mode: a binary double is almost never the
    rational the caller meant, so that conversion must be made explicitly.
    """
    if mode is Mode.EXACT:
        if isinstance(value, float):
            raise TypeError("float input rejected in exact mode; pass a Fraction or int")
        return Fraction(value)
    return float(value)


def _dec(value) -> str:
    """A number to 17 significant digits as "%.17g" prints it; a word such as "undefined" as it is.

    A value that rounds to a finite double prints as that double does: 1/3 as
    0.33333333333333331, not its own 17-digit rounding. Past the doubles, where
    float() raises, the value's integer part is rounded half to even; the CLI
    prints only integers there (``cli._admit`` leaves den(p) = 1).
    """
    if isinstance(value, str):
        return value
    try:
        return f"{float(value):.17g}"
    except OverflowError:  # float() raises from 2^1024 - 2^970 on, past (2^53 - 1) 2^971
        return _quotient(int(value))


def _quotient(value) -> str:
    """A rational past the doubles in "%.17g"'s form: its quotient to 17 digits, half to even."""
    from decimal import Context, Decimal  # exact for any int, and not loaded at start-up
    quotient = Context(prec=17).divide(Decimal(value.numerator), Decimal(value.denominator))
    return format(quotient.normalize(), "g")


def _shown(value) -> str:
    """str(value) for a message; past Python's int-to-str limit ``_dec(value)``, or
    ``_quotient(value)`` where a nonzero value rounds to 0 in a double, to keep its exponent."""
    try:
        return str(value)
    except ValueError:  # str(int) raises only at the limit, a process-wide setting
        return _quotient(value) if 0 < abs(value) <= Fraction(1, 2**1075) else _dec(value)


def _pair(name: str, value, other_name: str, other) -> str:
    """"name value, other_name other" by ``_shown``, with value - other where both read alike."""
    text, other_text = _shown(value), _shown(other)
    tail = f", difference {_shown(value - other)}" if text == other_text else ""
    return f"{name} {text}, {other_name} {other_text}{tail}"
