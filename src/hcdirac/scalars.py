"""Exact arithmetic in the quartic field Q(i, sqrt(2)).

Every constant appearing in the algebra relations and module actions lives
here once the deformation parameters are specialised to rationals: sqrt(2)
enters through the Clifford-weighted reflections, i through the type-B
module actions.  An element (a + b*sqrt(2) + c*i + d*i*sqrt(2)) / q is stored
as five Python ints, four numerators over one common denominator (the layout
of Antic's nf_elem), always in the canonical form q > 0, gcd(a, b, c, d, q) = 1,
so equality and hashing compare ints.  Fraction appears only in the text forms
and the read-only components `a`..`d`.  The text forms (`compact`, which
`str` returns, and `repr`) are output for reports; nothing parses them back.

The units +-1 are the singletons ONE and MINUS_ONE wherever they come from a
unit: building a Scalar from 1 or -1 (int or Fraction), negating ONE or
MINUS_ONE, and a product with ONE or MINUS_ONE as its left factor (ONE * x
is x and MINUS_ONE * x is -x).  So `linalg` tests a factor with `is` and
adds or subtracts without a product.  A sum or another product that equals
+-1 is a new object: exact and equal to the singleton, only not identical.
There is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Scalar:
    """An element (a + b*sqrt2 + c*i + d*i*sqrt2) / q with integer a, b, c, d, q.

    Immutable in the way Fraction is: the private slots are written only
    when an instance is made, and `a`..`d` are read-only.
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_q")

    def __new__(cls, a=0, b=0, c=0, d=0) -> Scalar:
        if not (a.__class__ is b.__class__ is c.__class__ is d.__class__ is int):
            comps = [Fraction(x) for x in (a, b, c, d)]
            # Over the lcm of reduced denominators the gcd is already 1.
            q = lcm(*(x.denominator for x in comps))
            if q != 1:
                return _new(*(x.numerator * (q // x.denominator) for x in comps), q)
            a, b, c, d = (x.numerator for x in comps)
        if not (b or c or d) and (a == 1 or a == -1):
            return ONE if a == 1 else MINUS_ONE
        return _new(a, b, c, d, 1)

    @staticmethod
    def _coerce(value) -> "Scalar | None":
        if isinstance(value, Scalar):
            return value
        return Scalar(value) if isinstance(value, (int, Fraction)) else None

    # -- components ---------------------------------------------------------

    a = property(lambda self: Fraction(self._a, self._q))
    b = property(lambda self: Fraction(self._b, self._q))
    c = property(lambda self: Fraction(self._c, self._q))
    d = property(lambda self: Fraction(self._d, self._q))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._a, self._b, self._c, self._d, self._q
        if not (a1 or b1 or c1 or d1):
            return other
        a2, b2, c2, d2, q2 = other._a, other._b, other._c, other._d, other._q
        if not (a2 or b2 or c2 or d2):
            return self
        if q1 == q2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, c1 * q2 + c2 * q1,
                        d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        if self is ONE:
            return MINUS_ONE
        if self is MINUS_ONE:
            return ONE
        return _new(-self._a, -self._b, -self._c, -self._d, self._q)

    def __sub__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        return (-self) + other

    def __mul__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._a, self._b, self._c, self._d, self._q
        a2, b2, c2, d2, q2 = other._a, other._b, other._c, other._d, other._q
        if b1 or c1 or d1:
            if b2 or c2 or d2:
                # (sqrt2)^2 = 2, i^2 = -1, (i*sqrt2)^2 = -2.
                return _reduced(
                    a1 * a2 + 2 * (b1 * b2 - d1 * d2) - c1 * c2,
                    a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                    a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
                    a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
                    q1 * q2,
                )
            # Make the rational factor the first one.
            other, a1, q1, a2, b2, c2, d2, q2 = self, a2, q2, a1, b1, c1, d1, q1
        # A rational factor is by far the most common case, and most often +-1.
        if q1 == 1:
            if a1 == 1:
                return other
            if a1 == -1:
                return -other
            if not a1:
                return ZERO
        return _reduced(a1 * a2, a1 * b2, a1 * c2, a1 * d2, q1 * q2)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Exact multiplicative inverse; raises ZeroDivisionError on zero."""
        a, b, c, d, q = self._a, self._b, self._c, self._d, self._q
        # With x = alpha + beta*i (alpha, beta in Z[sqrt2]), 1/x is
        # conj(x) / (alpha^2 + beta^2), and alpha^2 + beta^2 = p + r*sqrt2 is
        # inverted through its norm p^2 - 2r^2, which is positive for x != 0
        # since both real embeddings of a sum of real squares are positive.
        p = a * a + 2 * b * b + c * c + 2 * d * d
        r = 2 * (a * b + c * d)
        norm = p * p - 2 * r * r
        if not norm:
            raise ZeroDivisionError("inversion of zero in Q(i, sqrt2)")
        return _reduced(q * (a * p - 2 * b * r), q * (b * p - a * r),
                        q * (2 * d * r - c * p), q * (c * r - d * p), norm)

    def __truediv__(self, other) -> Scalar:
        other = self._coerce(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other) -> Scalar:
        other = self._coerce(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, exponent: int) -> Scalar:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> Scalar:
        """Complex conjugation i -> -i; a field automorphism fixing sqrt2."""
        return _new(self._a, self._b, -self._c, -self._d, self._q)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b or self._c or self._d)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self._a, self._b, self._c, self._d, self._q) == (
            other._a, other._b, other._c, other._d, other._q)

    def __hash__(self) -> int:
        # A rational element hashes like the equal int or Fraction.
        if not (self._b or self._c or self._d):
            return hash(self._a) if self._q == 1 else hash(Fraction(self._a, self._q))
        return hash((self._a, self._b, self._c, self._d, self._q))

    # -- text forms ----------------------------------------------------------

    def compact(self) -> str:
        """Short form with zero components omitted, e.g. '1/2-1*i'."""
        pieces = []
        for value, suffix in ((self.a, ""), (self.b, "*r2"), (self.c, "*i"), (self.d, "*i*r2")):
            if not value:
                continue
            text = f"{value}{suffix}"
            if pieces and not text.startswith("-"):
                pieces.append("+")
            pieces.append(text)
        return "".join(pieces) if pieces else "0"

    def __str__(self) -> str:
        return self.compact()

    def __repr__(self) -> str:
        return f"Scalar({self.a}, {self.b}, {self.c}, {self.d})"


def _new(a: int, b: int, c: int, d: int, q: int) -> Scalar:
    """A Scalar from components already in canonical form."""
    self = object.__new__(Scalar)
    self._a, self._b, self._c, self._d, self._q = a, b, c, d, q
    return self


def _reduced(a: int, b: int, c: int, d: int, q: int) -> Scalar:
    """A Scalar from components over a positive q, divided by their gcd."""
    if q != 1:
        g = gcd(a, b, c, d, q)
        if g != 1:
            return _new(a // g, b // g, c // g, d // g, q // g)
    return _new(a, b, c, d, q)


# The units +-1 are singletons: see the module docstring.
ONE = _new(1, 0, 0, 0, 1)
MINUS_ONE = _new(-1, 0, 0, 0, 1)
# +-1 by value -> the singleton: `UNITS.get(x, x)` turns a unit that is not
# the singleton into it (Scalar hashes and compares by value).
UNITS = {ONE: ONE, MINUS_ONE: MINUS_ONE}
ZERO = Scalar(0)
TWO = Scalar(2)
HALF = Scalar(Fraction(1, 2))
SQRT2 = Scalar(0, 1)
HALF_SQRT2 = Scalar(0, Fraction(1, 2))
I = Scalar(0, 0, 1)
I_SQRT2 = Scalar(0, 0, 0, 1)
