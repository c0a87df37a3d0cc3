import random
import sys
from fractions import Fraction as F

import pytest

from hurwitz_tau.algebra import (
    BetaSeries,
    format_rational,
    parse_rational,
)
from hurwitz_tau.errors import SingularSeriesError, UsageError


def test_series_mul_examples():
    D = 2
    one_plus = BetaSeries([1, 1], order=D)
    one_minus = BetaSeries([1, -1], order=D)
    assert one_plus * one_minus == BetaSeries([1, 0, -1])
    a = BetaSeries([1, 1, 1])
    assert a * BetaSeries.one(2) == a
    # hand Cauchy product: (1+b+b^2)(1+b) = 1 + 2b + 2b^2 + O(b^3)
    assert a * BetaSeries([1, 1], order=2) == BetaSeries([1, 2, 2])


def test_series_mul_order_mismatch():
    with pytest.raises(UsageError):
        BetaSeries([1], order=2) * BetaSeries([1], order=3)


def test_series_inv_examples():
    assert BetaSeries([1, -1], order=3).inv() == BetaSeries([1, 1, 1, 1])
    assert BetaSeries.one(4).inv() == BetaSeries.one(4)
    assert BetaSeries([1, 2], order=2).inv() == BetaSeries([1, -2, 4])


def test_series_inv_singular():
    with pytest.raises(SingularSeriesError):
        BetaSeries([0, 1], order=3).inv()


def test_series_eval_examples():
    assert BetaSeries([1, 1]).eval(F(1, 2)) == F(3, 2)
    assert BetaSeries([7, 3, 5]).eval(0) == 7
    assert BetaSeries([1, 1, 1]).eval(F(1, 3)) == F(13, 9)


def _random_fraction(rng):
    return F(rng.randint(-50, 50), rng.randint(1, 30))


def test_rational_ring_axioms():
    # fractions.Fraction carries the exactness contract; pin it down anyway
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (_random_fraction(rng) for _ in range(3))
        assert (a + b) - b == a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_series_inverse_property():
    rng = random.Random(1)
    for _ in range(50):
        D = rng.randint(0, 8)
        coeffs = [_random_fraction(rng) for _ in range(D + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        a = BetaSeries(coeffs)
        assert a * a.inv() == BetaSeries.one(D)


def test_truncation_consistency():
    rng = random.Random(2)
    for _ in range(50):
        D = rng.randint(1, 8)
        Dp = rng.randint(0, D - 1)
        a = BetaSeries([_random_fraction(rng) for _ in range(D + 1)])
        b = BetaSeries([_random_fraction(rng) for _ in range(D + 1)])
        full = (a * b).truncate(Dp)
        short = a.truncate(Dp) * b.truncate(Dp)
        assert full == short


@pytest.mark.parametrize("numerator", [
    lambda long: -long,  # negative, and as long as the denominator
    lambda long: 3,  # only the denominator is long
], ids=["both-long", "denominator-long"])
def test_format_rational_past_the_int_to_str_limit(numerator):
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    long = 10 ** limit + 7  # limit + 1 digits, odd and prime to 3
    x = F(numerator(long), long + 2)
    assert x.denominator == long + 2
    with pytest.raises(ValueError):
        str(x)
    got = format_rational(x)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(x)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_rational_strings():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-3)) == "-3"
    assert parse_rational("22/7") == F(22, 7)
    assert parse_rational("-5") == F(-5)
    for bad, pos in [("x", 0), ("1/x", 2), ("3/0", 2), ("1/2/3", 3), ("", 0)]:
        with pytest.raises(UsageError) as err:
            parse_rational(bad)
        assert f"position {pos}" in str(err.value)
