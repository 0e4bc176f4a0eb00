import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigjoint import Mode, as_scalar, binom, parse_probability

# 29-digit value, cross-checked against the Pascal recurrence below.
C_99_50 = 50445672272782096667406248628


def test_binom_small_values():
    assert binom(5, 0) == 1
    assert binom(5, 2) == 10
    assert binom(0, 0) == 1


def test_binom_zero_above_diagonal():
    assert binom(5, 7) == 0
    assert binom(0, 1) == 0


def test_binom_large_matches_pascal_recurrence():
    row = [1]
    for n in range(1, 100):
        row = [1] + [row[j - 1] + row[j] for j in range(1, n)] + [1]
    assert row[50] == C_99_50
    assert binom(99, 50) == C_99_50
    assert len(str(C_99_50)) == 29


def test_binom_rejects_negative():
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -2)


def test_binom_symmetry_and_pascal_up_to_64():
    for n in range(65):
        for k in range(n + 1):
            assert binom(n, k) == binom(n, n - k)
    for n in range(1, 65):
        for k in range(1, n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


fractions_strategy = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)


@given(fractions_strategy, fractions_strategy, fractions_strategy)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(fractions_strategy)
def test_rational_stored_normalized(a):
    assert a.denominator > 0
    assert math.gcd(abs(a.numerator), a.denominator) == 1


def test_parse_probability_fraction_and_decimal():
    assert parse_probability("1/2") == Fraction(1, 2)
    assert parse_probability("0.25") == Fraction(1, 4)
    assert parse_probability("1") == 1
    assert parse_probability("0") == 0
    # decimals are digits over a power of ten, not binary doubles
    assert parse_probability("0.1") == Fraction(1, 10)


@pytest.mark.parametrize("bad", ["3/2", "-0.1", "junk", "1/0", ""])
def test_parse_probability_rejects(bad):
    with pytest.raises(ValueError):
        parse_probability(bad)


def test_as_scalar_mode_boundaries():
    assert as_scalar(3, Mode.EXACT) == Fraction(3)
    assert isinstance(as_scalar(3, Mode.EXACT), Fraction)
    assert as_scalar(Fraction(1, 3), Mode.FLOAT) == pytest.approx(1 / 3)
    assert isinstance(as_scalar(2, Mode.FLOAT), float)
    with pytest.raises(TypeError):
        as_scalar(0.5, Mode.EXACT)
