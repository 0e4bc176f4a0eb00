"""Exact-arithmetic substrate: probability parsing and the exact/float switch.

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
