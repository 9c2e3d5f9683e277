"""Gaussian rational scalars: the field QQ(i) in exact arithmetic."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Union[int, Fraction]


class GaussRat:
    """An element a + b*i with a, b exact rationals.

    Instances are immutable; Fraction keeps both parts in lowest terms
    with positive denominators, so equal values are structurally equal.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0) -> None:
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- conversions -------------------------------------------------

    @staticmethod
    def coerce(v: "GaussRat | Rat") -> "GaussRat":
        if isinstance(v, GaussRat):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussRat(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to GaussRat")

    # -- predicates --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        o = GaussRat.coerce(other)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussRat.coerce(other)
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussRat.coerce(other) - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussRat.coerce(other)
        if not self.im and not o.im:
            return GaussRat(self.re * o.re)
        return GaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRat.coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero in QQ(i)")
        n = o.norm()
        return GaussRat(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return GaussRat(1) / self ** (-n)
        out = GaussRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, the multiplicative norm down to QQ."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        return GaussRat(1) / self

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def sort_key(self) -> tuple[Fraction, Fraction]:
        # total order used only to make enumeration output deterministic
        return (self.re, self.im)

    def __repr__(self) -> str:
        return render_coeff(self)


def render_coeff(c: GaussRat) -> str:
    """Canonical text of a scalar: 2/3, -i, 2*i, (1-i), (-1/2+3*i).

    Mixed values are parenthesized so they can multiply a monomial.
    """
    if not c.im:
        return str(c.re)
    if c.im == 1:
        im = "i"
    elif c.im == -1:
        im = "-i"
    else:
        im = f"{c.im}*i"
    if not c.re:
        return im
    return f"({c.re}{'' if im.startswith('-') else '+'}{im})"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def gauss_sqrt(c: GaussRat) -> GaussRat | None:
    """A square root of c inside QQ(i), or None if no such root exists.

    Solves (x + yi)^2 = a + bi over the rationals: x^2 + y^2 must equal
    the rational square root of the norm, after which x^2 and y^2 are
    forced.
    """
    if not c:
        return ZERO
    n = _fraction_sqrt(c.norm())
    if n is None:
        return None
    x2 = (c.re + n) / 2
    x = _fraction_sqrt(x2)
    if x is None:
        return None
    if x == 0:
        y = _fraction_sqrt(n)  # c.re = -n, pure imaginary root
        if y is None:
            return None
        return GaussRat(0, y)
    y = c.im / (2 * x)
    root = GaussRat(x, y)
    return root if root * root == c else None
