"""Skew polynomials in z over a commutative base, z*d = d*z + twist(d).

An element is kept as its left normal form sum a_j z^j, read as one
commutative polynomial over base ring + ('z',): the skew ring and the
Poisson algebra A[z] share that space, and sum, negation and equality
are those of the polynomial.  Only the product differs.  It pushes z
past a polynomial P one step at a time, z*P = (P with every z-exponent
raised by one) + twist~(P), where twist~ extends the twist by z -> 0.
No closed form for z^n * d is assumed, so the Leibniz expansion
z^n d = sum C(n, k) twist^k(d) z^(n-k) remains an independent check.
"""

from __future__ import annotations

from .deriv import Derivation
from .polycore import GaussRat, Poly
from .polycore.poly import render


def _z_ring(twist: Derivation) -> tuple[str, ...]:
    if "z" in twist.ring:
        raise ValueError("the base ring of a skew polynomial cannot contain z")
    return twist.ring + ("z",)


class SkewPoly:
    __slots__ = ("twist", "poly")

    def __init__(self, twist: Derivation, coeffs: tuple[Poly, ...] | list[Poly]):
        # embedding in the base ring first refuses a coefficient that uses z
        strata = {k: c.embed(twist.ring) for k, c in enumerate(coeffs)}
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "poly", Poly.from_strata(_z_ring(twist), "z", strata))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_base(twist: Derivation, p: Poly) -> "SkewPoly":
        return SkewPoly(twist, (p,))

    @staticmethod
    def z(twist: Derivation) -> "SkewPoly":
        return SkewPoly.from_poly(twist, Poly.var(_z_ring(twist), "z"))

    @staticmethod
    def from_poly(twist: Derivation, p: Poly) -> "SkewPoly":
        """Read a commutative polynomial in base vars and z as left normal form."""
        out = object.__new__(SkewPoly)
        object.__setattr__(out, "twist", twist)
        object.__setattr__(out, "poly", p.embed(_z_ring(twist)))
        return out

    # -- basic structure --------------------------------------------------

    @property
    def base_ring(self) -> tuple[str, ...]:
        return self.twist.ring

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The base coefficients of z^0, z^1, ..., without trailing zeros."""
        strata = self.poly.strata("z")
        zero = Poly.zero(self.base_ring)
        return tuple(strata.get(k, zero) for k in range(max(strata, default=-1) + 1))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self) -> bool:
        return bool(self.poly)

    def to_poly(self) -> Poly:
        """The underlying commutative expression in base vars plus z."""
        return self.poly

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "SkewPoly") -> None:
        if self.twist is not other.twist and self.twist != other.twist:
            raise ValueError("skew polynomials over different twists")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        return SkewPoly.from_poly(self.twist, self.poly + other.poly)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        return SkewPoly.from_poly(self.twist, self.poly - other.poly)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly.from_poly(self.twist, -self.poly)

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int)):
            other = Poly.constant(self.base_ring, other)
        if isinstance(other, Poly):
            other = SkewPoly.from_base(self.twist, other)
        self._check(other)
        ring = self.poly.ring
        twist_z = self.twist.extend_zero("z")
        strata = self.poly.strata("z")
        top = max(strata, default=-1)
        total = Poly.zero(ring)
        shifted = other.poly  # z^i * other, in left normal form
        for i in range(top + 1):
            if i in strata:
                total = total + strata[i].embed(ring) * shifted
            if i < top:
                shifted = Poly.from_strata(ring, "z", {1: shifted}) + twist_z.apply(shifted)
        return SkewPoly.from_poly(self.twist, total)

    def __pow__(self, n: int) -> "SkewPoly":
        if n < 0:
            raise ValueError("negative power in a skew ring")
        out = SkewPoly.from_base(self.twist, Poly.one(self.base_ring))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.twist == other.twist and self.poly == other.poly

    def __repr__(self):
        return f"<skew {render(self.poly)}>"


def commutator(u: SkewPoly, v: SkewPoly) -> SkewPoly:
    return u * v - v * u


# -- the one-parameter family over A[h] ------------------------------------


def quantize(delta: Derivation) -> Derivation:
    """The twist h*delta on base ring + ('h',), with h sent to zero."""
    if "h" in delta.ring:
        raise ValueError("base ring already contains h")
    ext = delta.extend_zero("h")
    return ext.scale(Poly.var(ext.ring, "h"))


def unquantize(twist: Derivation) -> Derivation:
    """Recover delta on the h-free base from a twist of the form h*delta.

    h divides twist(v) exactly when twist(v) has no h^0 stratum, and
    then delta(v) = twist(v)/h at h = 0 is its h^1 stratum.
    """
    if "h" not in twist.ring:
        raise ValueError("twist does not involve h")
    if twist.image("h"):
        raise ValueError("h is not a constant of the twist")
    base = tuple(v for v in twist.ring if v != "h")
    images = {}
    for v in base:
        strata = twist.image(v).strata("h")
        if 0 in strata:
            raise ValueError(f"twist({v}) is not divisible by h")
        images[v] = strata.get(1, Poly.zero(base))
    return Derivation(base, images)


def semiclassical_bracket(u: SkewPoly, v: SkewPoly) -> Poly:
    """(1/h) [u, v] at h = 0, read as a commutative polynomial in z.

    The twist must be h*delta; then the commutator has no h^0 stratum,
    its quotient by h at h = 0 is its h^1 stratum, and that stratum is
    the z-bracket of the images of u and v in the commutative
    specialization.
    """
    unquantize(u.twist)  # validates the twist shape
    strata = commutator(u, v).poly.strata("h")
    if 0 in strata:
        raise ArithmeticError("commutator coefficient not divisible by h")
    return strata.get(1, Poly.zero(tuple(x for x in u.poly.ring if x != "h")))


def specialize_classical(u: SkewPoly) -> Poly:
    """Image of u at h = 0 with z commutative: the h^0 stratum of u."""
    if "h" not in u.twist.ring:
        raise ValueError("twist does not involve h")
    ring = tuple(v for v in u.poly.ring if v != "h")
    return u.poly.strata("h").get(0, Poly.zero(ring))
