"""Gaussian-rational scalar arithmetic."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from conftest import rand_gauss
from poissonore import GaussRat, I, ONE, ZERO
from poissonore.polycore import gauss_sqrt


def test_construction_and_equality():
    assert GaussRat(1, 2) == GaussRat(Fraction(1), Fraction(2))
    assert GaussRat(3) == 3
    assert GaussRat() == ZERO
    assert GaussRat(0, 1) == I
    assert GaussRat(1, 2) != GaussRat(1, 3)
    assert hash(GaussRat(5)) == hash(GaussRat(Fraction(5)))


def test_coerce():
    assert GaussRat.coerce(7) == GaussRat(7)
    assert GaussRat.coerce(Fraction(2, 3)) == GaussRat(Fraction(2, 3))
    assert GaussRat.coerce(I) is I


def test_basic_identities():
    assert I * I == -ONE
    assert (ONE + I) * (ONE - I) == GaussRat(2)
    assert GaussRat(3, 4).conjugate() == GaussRat(3, -4)
    assert GaussRat(3, 4).norm() == Fraction(25)


def test_division_and_inverse():
    a = GaussRat(3, 4)
    assert a * a.inverse() == ONE
    assert (a / a) == ONE
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow():
    assert I ** 4 == ONE
    assert GaussRat(1, 1) ** 2 == GaussRat(0, 2)
    assert GaussRat(2) ** -1 == GaussRat(Fraction(1, 2))
    assert GaussRat(5) ** 0 == ONE


def test_sort_key_orders_reals_first():
    vals = [I, ONE, ZERO, GaussRat(-1), GaussRat(0, -1)]
    ordered = sorted(vals, key=GaussRat.sort_key)
    assert ordered.index(GaussRat(-1)) < ordered.index(ONE)


def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        a = rand_gauss(rng)
        b = rand_gauss(rng)
        c = rand_gauss(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == ONE
        assert a - a == ZERO


def test_gauss_sqrt():
    assert gauss_sqrt(GaussRat(Fraction(9, 4))) in (GaussRat(Fraction(3, 2)), GaussRat(Fraction(-3, 2)))
    assert gauss_sqrt(GaussRat(-1)) in (I, -I)
    assert gauss_sqrt(GaussRat(-4)) in (GaussRat(0, 2), GaussRat(0, -2))
    assert gauss_sqrt(GaussRat(0, 2)) in (GaussRat(1, 1), GaussRat(-1, -1))
    assert gauss_sqrt(GaussRat(3, 4)) in (GaussRat(2, 1), GaussRat(-2, -1))
    assert gauss_sqrt(GaussRat(2)) is None
    assert gauss_sqrt(GaussRat(0, 1)) is None


def test_gauss_sqrt_random_squares():
    rng = random.Random(102)
    for _ in range(100):
        a = rand_gauss(rng)
        r = gauss_sqrt(a * a)
        assert r is not None and r * r == a * a


# -- the integer triple against an independent pair-of-Fractions model ---------


class _Pair:
    """The value re + im*i as two Fractions, with the textbook formulas."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return _Pair((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __bool__(self):
        return bool(self.re or self.im)


def _rand_rational(rng: random.Random) -> Fraction:
    size = rng.choice([3, 12, 10**6, 10**15])
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def _rand_pair(rng: random.Random) -> _Pair:
    kind = rng.random()
    if kind < 0.15:
        return _Pair(0, 0)
    if kind < 0.4:
        return _Pair(_rand_rational(rng))
    if kind < 0.55:  # both parts over one denominator
        d = rng.randint(1, 10**13)
        return _Pair(Fraction(rng.randint(-10**13, 10**13), d), Fraction(rng.randint(-10**13, 10**13), d))
    return _Pair(_rand_rational(rng), _rand_rational(rng))


def _check(g: GaussRat, m: _Pair) -> None:
    assert type(g.a) is int and type(g.b) is int and type(g.d) is int
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    assert (g.re, g.im) == (m.re, m.im)
    assert g == GaussRat(m.re, m.im)
    assert hash(g) == hash((m.re, m.im))


def test_triple_matches_the_fraction_pair_model():
    rng = random.Random(103)
    for _ in range(1500):
        m, n = _rand_pair(rng), _rand_pair(rng)
        x, y = GaussRat(m.re, m.im), GaussRat(n.re, n.im)
        _check(x, m)
        _check(x + y, m + n)
        _check(x - y, m - n)
        _check(x * y, m * n)
        _check(-x, _Pair(-m.re, -m.im))
        _check(x.conjugate(), _Pair(m.re, -m.im))
        assert x.norm() == m.re * m.re + m.im * m.im
        assert bool(x) == bool(m)
        if n:
            _check(x / y, m / n)
            _check(y.inverse(), _Pair(1) / n)
        # mixed operands: int and Fraction on either side
        k, q = rng.randint(-10**14, 10**14), _rand_rational(rng)
        _check(x * k, m * _Pair(k))
        _check(k * x, m * _Pair(k))
        _check(x + q, m + _Pair(q))
        _check(q - x, _Pair(q) - m)
        if q:
            _check(x / q, m / _Pair(q))


def test_pow_matches_the_model():
    rng = random.Random(104)
    for _ in range(200):
        m = _rand_pair(rng)
        x = GaussRat(m.re, m.im)
        for k in range(-3, 6):
            if k < 0 and not m:
                continue
            want = _Pair(1)
            for _ in range(abs(k)):
                want = want * m
            _check(x ** k, _Pair(1) / want if k < 0 else want)


def test_equal_values_are_equal_triples_however_built():
    for k in (0, 1, -7, 10**13 + 1):
        built = [
            GaussRat(k),
            GaussRat(Fraction(k)),
            GaussRat(Fraction(2 * k, 2), 0),
            GaussRat.coerce(k),
            GaussRat.coerce(Fraction(k)),
            GaussRat(k + 1) - GaussRat(1),
            GaussRat(Fraction(k, 3)) * 3,
            GaussRat(k, 5) + GaussRat(0, -5),
            GaussRat(k, 1) * GaussRat(k, -1) / GaussRat(k, 1) - GaussRat(0, -1),
        ]
        for g in built:
            assert (g.a, g.b, g.d) == (k, 0, 1)
            assert g == k and g == Fraction(k) and g == built[0]
            assert hash(g) == hash(built[0]) == hash((Fraction(k), Fraction(0)))
    half_third = [
        GaussRat(Fraction(1, 2), Fraction(1, 3)),
        GaussRat(Fraction(3, 6), Fraction(2, 6)),
        GaussRat(Fraction(1, 2)) + GaussRat(0, Fraction(1, 3)),
        GaussRat(3, 2) / 6,
    ]
    for g in half_third:
        assert (g.a, g.b, g.d) == (3, 2, 6)
        assert hash(g) == hash((Fraction(1, 2), Fraction(1, 3)))
    assert len(set(half_third)) == 1


def test_division_by_zero_raises():
    x = GaussRat(Fraction(2, 3), -5)
    zeros = [ZERO, GaussRat(0), GaussRat(Fraction(0, 7), 0), x - x]
    for z in zeros:
        with pytest.raises(ZeroDivisionError):
            x / z
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        with pytest.raises(ZeroDivisionError):
            z ** -2
        with pytest.raises(ZeroDivisionError):
            1 / z
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        GaussRat(3) / Fraction(0)


@pytest.mark.parametrize(
    "args", [(0.1,), ("1/3",), (1, 0.5), (Decimal("0.1"),), (1 + 2j,), (None,), (1, "2")]
)
def test_constructor_refuses_inexact_input(args):
    with pytest.raises(TypeError):
        GaussRat(*args)


def test_scalars_are_immutable():
    x = GaussRat(1, 2)
    for name in ("a", "b", "d", "re", "im"):
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
    assert (x.a, x.b, x.d) == (1, 2, 1)
