"""Gaussian rational scalars: the field QQ(i) in exact arithmetic.

A scalar is one integer triple: a Gaussian-integer numerator a + b*i
over one positive integer denominator d (von zur Gathen & Gerhard,
Modern Computer Algebra, Sec. 5).  The triple is canonical, d > 0 and
gcd(a, b, d) = 1, so structurally equal triples are equal values.  Each
operation does its integer arithmetic and at most one three-way gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rat = Union[int, Fraction]

_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussRat":
    """The scalar (a + b*i)/d from an already canonical triple."""
    z = _new(GaussRat)
    _SA(z, a)
    _SB(z, b)
    _SD(z, d)
    return z


def _reduce(a: int, b: int, d: int) -> "GaussRat":
    """The scalar (a + b*i)/d for any d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _as_rational(v: object, role: str) -> tuple[int, int]:
    """Numerator and denominator of an exact rational input, in lowest terms."""
    if isinstance(v, (int, Fraction)):
        return int(v.numerator), int(v.denominator)
    raise TypeError(f"GaussRat {role} part must be int or Fraction, not {type(v).__name__}")


def _exact(v: object) -> "GaussRat | None":
    """v as a GaussRat when it is an int or a Fraction, else None."""
    if isinstance(v, int):
        return _make(int(v), 0, 1)
    if isinstance(v, Fraction):
        return _make(v.numerator, 0, v.denominator)
    return None


class GaussRat:
    """An element (a + b*i)/d of QQ(i) with a, b, d integers.

    Invariant: d > 0 and gcd(a, b, d) == 1, so equal values are
    structurally equal.  The constructor takes the real and imaginary
    parts, each an int or a Fraction; anything inexact is refused.
    Instances are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rat = 0, im: Rat = 0) -> None:
        ra, rd = _as_rational(re, "real")
        ia, id_ = _as_rational(im, "imaginary")
        # both parts are in lowest terms, so over d = lcm(rd, id_) the
        # triple has no common factor
        d = rd * id_ // gcd(rd, id_)
        _SA(self, ra * (d // rd))
        _SB(self, ia * (d // id_))
        _SD(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- conversions -------------------------------------------------

    @staticmethod
    def coerce(v: "GaussRat | Rat") -> "GaussRat":
        c = v if isinstance(v, GaussRat) else _exact(v)
        if c is None:
            raise TypeError(f"cannot coerce {type(v).__name__} to GaussRat")
        return c

    # -- predicates --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        o = other if other.__class__ is GaussRat else _exact(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        if d == e:
            a, b = self.a + o.a, self.b + o.b
            return _make(a, b, d) if d == 1 else _reduce(a, b, d)
        return _reduce(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is GaussRat else _exact(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        if d == e:
            a, b = self.a - o.a, self.b - o.b
            return _make(a, b, d) if d == 1 else _reduce(a, b, d)
        return _reduce(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __rsub__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = other if other.__class__ is GaussRat else _exact(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        if not b and not e:
            n, d = a * c, self.d * o.d
            g = gcd(n, d)
            return _make(n // g, 0, d // g) if g != 1 else _make(n, 0, d)
        return _reduce(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if other.__class__ is GaussRat else _exact(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i)*f / (d*(c^2 + e^2))
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero in QQ(i)")
        f = o.d
        return _reduce((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        o = _exact(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int):
        if n < 0:
            return ONE / self ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussRat":
        return _make(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """re^2 + im^2, the multiplicative norm down to QQ."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def inverse(self) -> "GaussRat":
        return ONE / self

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        o = other if other.__class__ is GaussRat else _exact(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self) -> int:
        # a real value hashes like the int or Fraction it equals
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def sort_key(self) -> tuple[Fraction, Fraction]:
        # total order used only to make enumeration output deterministic
        return (self.re, self.im)

    def __repr__(self) -> str:
        return render_coeff(self)


# slot setters, since GaussRat refuses attribute assignment
_SA, _SB, _SD = GaussRat.a.__set__, GaussRat.b.__set__, GaussRat.d.__set__


def render_coeff(c: GaussRat) -> str:
    """Canonical text of a scalar: 2/3, -i, 2*i, (1-i), (-1/2+3*i).

    Mixed values are parenthesized so they can multiply a monomial.
    """
    re, im = c.re, c.im
    if not im:
        return str(re)
    if im == 1:
        im_text = "i"
    elif im == -1:
        im_text = "-i"
    else:
        im_text = f"{im}*i"
    if not re:
        return im_text
    return f"({re}{'' if im_text.startswith('-') else '+'}{im_text})"


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


def gauss_sqrt(c: GaussRat) -> GaussRat | None:
    """A square root of c inside QQ(i), or None if no such root exists.

    If r^2 = c, then (r*d)^2 = (a + b*i)*d lies in Z[i], which is
    integrally closed, so r*d lies in Z[i] too.  It therefore suffices to
    solve (x + y*i)^2 = p + q*i = (a + b*i)*d over the integers:
    x^2 + y^2 must be the integer square root n of p^2 + q^2,
    after which x^2 = (n + p)/2 and y^2 = (n - p)/2 are forced and 2xy = q
    fixes the sign of y.  The root returned has x > 0, or x = 0 and y > 0.
    """
    if not c:
        return ZERO
    p, q = c.a * c.d, c.b * c.d
    n2 = p * p + q * q
    n = isqrt(n2)
    if n * n != n2 or (n + p) % 2:
        return None
    x2, y2 = (n + p) // 2, (n - p) // 2
    x, y = isqrt(x2), isqrt(y2)
    if x * x != x2 or y * y != y2:
        return None
    if q < 0:
        y = -y
    if 2 * x * y != q:
        return None
    return _reduce(x, y, c.d)
