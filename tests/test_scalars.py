"""Field axioms and text round-trips for the Q(i, sqrt2) arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hcdirac.scalars import HALF, HALF_SQRT2, I, I_SQRT2, MINUS_ONE, ONE, SQRT2, TWO, ZERO, Scalar


def random_scalar(rng: random.Random) -> Scalar:
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    return Scalar(q(), q(), q(), q())


def test_defining_relations():
    assert SQRT2 * SQRT2 == Scalar(2)
    assert I * I == Scalar(-1)
    assert I_SQRT2 * I_SQRT2 == Scalar(-2)
    assert I * SQRT2 == I_SQRT2


def test_difference_of_squares():
    assert (ONE + SQRT2) * (ONE - SQRT2) == Scalar(-1)


def test_embed():
    assert Scalar(0) == ZERO
    assert Scalar(1) * random_scalar(random.Random(5)) == random_scalar(random.Random(5))
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2)) == ONE


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_inverse_random():
    rng = random.Random(99)
    count = 0
    while count < 200:
        x = random_scalar(rng)
        if not x:
            continue
        count += 1
        assert x.inverse() * x == ONE
        assert x / x == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugation_is_automorphism():
    rng = random.Random(7)
    for _ in range(200):
        x, y = random_scalar(rng), random_scalar(rng)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert I.conjugate() == -I
    assert SQRT2.conjugate() == SQRT2


def test_scalar_arith_dispatch():
    assert ONE + ONE == Scalar(2)
    assert SQRT2 * SQRT2 == Scalar(2)
    assert -ONE == Scalar(-1)


def test_units_are_singletons():
    for value in (1, Fraction(1), Fraction(2, 2)):
        assert Scalar(value) is ONE
        assert Scalar(-value) is MINUS_ONE
    assert Scalar(1, 0, 0, 0) is ONE
    assert -ONE is MINUS_ONE and -MINUS_ONE is ONE
    assert MINUS_ONE * MINUS_ONE is ONE and ONE * MINUS_ONE is MINUS_ONE
    assert MINUS_ONE * ONE is MINUS_ONE and ONE * ONE is ONE
    for x in (SQRT2, I, HALF, Scalar(-3), HALF_SQRT2 + I):
        assert ONE * x is x
        assert MINUS_ONE * x == -x
    # A one that no unit produced is equal to ONE, but it is its own object.
    assert TWO * HALF == ONE and TWO * HALF is not ONE
    assert ONE - ONE == ZERO and (ONE - ONE) is not ONE


def test_power():
    assert SQRT2**2 == Scalar(2)
    assert (ONE + I) ** 4 == Scalar(-4)
    assert SQRT2 ** (-2) == Scalar(Fraction(1, 2))


def test_hash_consistency():
    assert hash(Scalar(1, 0, 0, 0)) == hash(ONE)
    assert len({ONE, Scalar(1), SQRT2}) == 2


def test_rational_hashes_like_fraction():
    for value in (0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4)):
        assert Scalar(value) == value
        assert hash(Scalar(value)) == hash(value)
    assert {Scalar(1): "v"}.get(1) == "v"
    assert {Fraction(1, 2): "h"}.get(Scalar(Fraction(2, 4))) == "h"


# -- differential test against four Fractions ------------------------------


def ref(x: Scalar) -> tuple[Fraction, ...]:
    return (x.a, x.b, x.c, x.d)


def ref_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + 2 * b1 * d2 + 2 * d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def ref_inverse(x):
    # x * conj(x) lies in Q(sqrt2); times its sqrt2-conjugate it is rational.
    a, b, c, d = x
    conj = (a, b, -c, -d)
    p = ref_mul(x, conj)
    p_bar = (p[0], -p[1], p[2], -p[3])
    norm = ref_mul(p, p_bar)[0]
    return tuple(v / norm for v in ref_mul(conj, p_bar))


def ref_pow(x, e):
    if e < 0:
        x, e = ref_inverse(x), -e
    out = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for _ in range(e):
        out = ref_mul(out, x)
    return out


def differential_values(rng: random.Random) -> list[Scalar]:
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 8, 9, 12)))

    fixed = [ZERO, ONE, -ONE, Scalar(2), Scalar(-3), Scalar(Fraction(1, 2)), SQRT2, I,
             HALF_SQRT2, I_SQRT2]
    drawn = [Scalar(q(), q() if rng.random() < 0.7 else 0, q() if rng.random() < 0.5 else 0,
                    q() if rng.random() < 0.5 else 0) for _ in range(50)]
    return fixed + drawn


def assert_canonical(x: Scalar) -> None:
    assert x._q > 0
    assert math.gcd(x._a, x._b, x._c, x._d, x._q) == 1


def test_differential_against_fraction_reference():
    rng = random.Random(31337)
    values = differential_values(rng)
    for x in values:
        rx = ref(x)
        assert ref(-x) == tuple(-v for v in rx)
        assert ref(x.conjugate()) == (rx[0], rx[1], -rx[2], -rx[3])
        for e in (0, 1, 2, 3, 5):
            assert ref(x**e) == ref_pow(rx, e)
        if x:
            assert ref(x.inverse()) == ref_inverse(rx)
            for e in (-1, -2, -3):
                assert ref(x**e) == ref_pow(rx, e)
        for y in values:
            ry = ref(y)
            for got, want in (
                (x + y, tuple(u + v for u, v in zip(rx, ry))),
                (x - y, tuple(u - v for u, v in zip(rx, ry))),
                (x * y, ref_mul(rx, ry)),
            ):
                assert ref(got) == want
                assert_canonical(got)
            assert (x == y) == (rx == ry)
            if rx == ry:
                assert hash(x) == hash(y)
    for k in (0, 1, -1, 3, Fraction(-5, 6)):
        for x in values:
            assert ref(x * k) == ref(k * x) == tuple(v * k for v in ref(x))
            assert ref(x + k) == ref(k + x) == (ref(x)[0] + k,) + ref(x)[1:]


def test_canonical_form():
    x = Scalar(Fraction(2, 4), 0, Fraction(-3, 6))
    y = Scalar(Fraction(1, 2), 0, Fraction(-1, 2))
    assert x == y
    assert hash(x) == hash(y)
    assert (x._a, x._b, x._c, x._d, x._q) == (1, 0, -1, 0, 2)
    # Cancellation in a sum reduces the denominator again.
    z = Scalar(Fraction(1, 6), Fraction(1, 3)) + Scalar(Fraction(1, 3), Fraction(-1, 3))
    assert (z._a, z._b, z._c, z._d, z._q) == (1, 0, 0, 0, 2)
    assert (ZERO._q, (HALF_SQRT2 - HALF_SQRT2)._q) == (1, 1)


def test_components_are_fractions():
    x = Scalar(Fraction(1, 2), 3, Fraction(-2, 3), 0)
    assert [type(v) for v in (x.a, x.b, x.c, x.d)] == [Fraction] * 4
    assert (x.a, x.b, x.c, x.d) == (Fraction(1, 2), 3, Fraction(-2, 3), 0)


@pytest.mark.parametrize(
    "value, components, compact",
    [
        (ZERO, "0 + 0*r2 + 0*i + 0*i*r2", "0"),
        (ONE, "1 + 0*r2 + 0*i + 0*i*r2", "1"),
        (-ONE, "-1 + 0*r2 + 0*i + 0*i*r2", "-1"),
        (Scalar(Fraction(1, 2)), "1/2 + 0*r2 + 0*i + 0*i*r2", "1/2"),
        (Scalar(0, Fraction(-3, 4)), "0 + -3/4*r2 + 0*i + 0*i*r2", "-3/4*r2"),
        (HALF_SQRT2, "0 + 1/2*r2 + 0*i + 0*i*r2", "1/2*r2"),
        (I_SQRT2, "0 + 0*r2 + 0*i + 1*i*r2", "1*i*r2"),
        (-I, "0 + 0*r2 + -1*i + 0*i*r2", "-1*i"),
        (Scalar(Fraction(1, 2), Fraction(-3, 2), 0, 2), "1/2 + -3/2*r2 + 0*i + 2*i*r2",
         "1/2-3/2*r2+2*i*r2"),
        (Scalar(Fraction(2, 4), 0, Fraction(-3, 6)), "1/2 + 0*r2 + -1/2*i + 0*i*r2", "1/2-1/2*i"),
        (Scalar(-7, Fraction(1, 3), Fraction(5, 6), Fraction(-1, 9)),
         "-7 + 1/3*r2 + 5/6*i + -1/9*i*r2", "-7+1/3*r2+5/6*i-1/9*i*r2"),
    ],
)
def test_text_forms_unchanged(value, components, compact):
    assert f"{value.a} + {value.b}*r2 + {value.c}*i + {value.d}*i*r2" == components
    assert value.compact() == str(value) == compact
    assert repr(value) == "Scalar({}, {}, {}, {})".format(*ref(value))


def test_immutable():
    x = Scalar(1, 2)
    for name in ("a", "b", "c", "d", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == Scalar(1, 2)
