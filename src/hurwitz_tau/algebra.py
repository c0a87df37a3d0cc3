"""Exact rational scalars and truncated power series in the parameter beta.

Rationals are ``fractions.Fraction`` kept in canonical reduced form; this
module adds the "p/q" string round-trip used at every CLI boundary and the
truncated-series arithmetic the generating-function modules are built on.
No floating point appears anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import SingularSeriesError, UsageError


def format_rational(x: Fraction) -> str:
    """Render ``x`` as ``"p/q"``, or just ``"p"`` when the denominator is 1,
    past the interpreter's int-to-str limit too: that limit is lifted only
    while one is rendered, so parsing input keeps it."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``; errors point at the offending character."""

    def fail(pos: int, why: str):
        raise UsageError(
            f"bad rational {text!r}: {why} at position {pos}", code="bad-rational"
        )

    def digits_end(start: int) -> int:
        # int() refuses a run past the interpreter's int-from-str limit
        limit = sys.get_int_max_str_digits()
        i = start
        while i < n and text[i].isdecimal():
            i += 1
        if i == start:
            fail(i, "expected a digit")
        if 0 < limit < i - start:
            fail(start + limit, f"more than {limit} digits")
        return i

    n = len(text)
    i = digits_end(1 if text[:1] in ("+", "-") else 0)
    numerator = int(text[:i])
    if i == n:
        return Fraction(numerator)
    if text[i] != "/":
        fail(i, f"unexpected character {text[i]!r}")
    dstart = i + 1
    i = digits_end(dstart)
    if i != n:
        fail(i, f"unexpected character {text[i]!r}")
    denominator = int(text[dstart:])
    if denominator == 0:
        fail(dstart, "zero denominator")
    return Fraction(numerator, denominator)


class BetaSeries:
    """Formal power series in beta truncated at a fixed order ``D``.

    Holds exactly ``D + 1`` rational coefficients (of beta^0 ... beta^D).
    All arithmetic truncates consistently: coefficient ``j`` of a product
    depends only on coefficients ``<= j`` of the factors.  Instances are
    immutable and safe to share.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise UsageError("series order must be >= 0", code="bad-order")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            raise UsageError("series needs at least the constant coefficient",
                             code="bad-order")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BetaSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "BetaSeries":
        return cls([Fraction(1)], order=order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> Fraction:
        if not 0 <= j <= self.order:
            raise UsageError(
                f"coefficient index {j} outside series order {self.order}",
                code="bad-order",
            )
        return self.coeffs[j]

    def _check_order(self, other: "BetaSeries"):
        if self.order != other.order:
            raise UsageError(
                f"series order mismatch: {self.order} != {other.order}",
                code="order-mismatch",
            )

    def __add__(self, other):
        if not isinstance(other, BetaSeries):
            return NotImplemented
        self._check_order(other)
        return BetaSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, BetaSeries):
            return NotImplemented
        self._check_order(other)
        return BetaSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BetaSeries([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BetaSeries):
            self._check_order(other)
            D = self.order
            out = [Fraction(0)] * (D + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(D + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return BetaSeries(out)
        if isinstance(other, (int, Fraction)):
            return BetaSeries([a * other for a in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def inv(self) -> "BetaSeries":
        """Multiplicative inverse modulo beta^(D+1)."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise SingularSeriesError(
                "series has zero constant term, no multiplicative inverse"
            )
        D = self.order
        out = [Fraction(0)] * (D + 1)
        out[0] = Fraction(1) / a0
        for n in range(1, D + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[n - i]
            out[n] = -acc / a0
        return BetaSeries(out)

    def eval(self, value) -> Fraction:
        """Evaluate the truncated polynomial at ``value`` (Horner)."""
        v = Fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def truncate(self, order: int) -> "BetaSeries":
        """Discard coefficients above ``order`` (must not exceed current order)."""
        if not 0 <= order <= self.order:
            raise UsageError(
                f"cannot truncate order-{self.order} series to order {order}",
                code="bad-order",
            )
        return BetaSeries(self.coeffs[: order + 1])

    def __eq__(self, other):
        return isinstance(other, BetaSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        inner = ", ".join(format_rational(c) for c in self.coeffs)
        return f"BetaSeries([{inner}])"
