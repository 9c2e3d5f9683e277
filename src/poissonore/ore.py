"""Skew polynomials in z over a commutative base, z*d = d*z + twist(d).

Elements are kept in left normal form: a tuple of base-ring
coefficients, index = power of z.  Multiplication pushes z past
coefficients one step at a time; no closed form for z^n * d is assumed.
"""

from __future__ import annotations

from .deriv import Derivation
from .polycore import GaussRat, Poly
from .polycore.poly import render


class SkewPoly:
    __slots__ = ("twist", "coeffs")

    def __init__(self, twist: Derivation, coeffs: tuple[Poly, ...] | list[Poly]):
        coeffs = [c.embed(twist.ring) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_base(twist: Derivation, p: Poly) -> "SkewPoly":
        return SkewPoly(twist, (p,))

    @staticmethod
    def z(twist: Derivation) -> "SkewPoly":
        ring = twist.ring
        return SkewPoly(twist, (Poly.zero(ring), Poly.one(ring)))

    @staticmethod
    def from_poly(twist: Derivation, p: Poly) -> "SkewPoly":
        """Read a commutative polynomial in base vars and z as left normal form."""
        if "z" not in p.ring:
            return SkewPoly.from_base(twist, p)
        strata = p.strata("z")
        n = max(strata) if strata else -1
        ring = twist.ring
        return SkewPoly(
            twist, [strata.get(k, Poly.zero(ring)) for k in range(n + 1)]
        )

    # -- basic structure --------------------------------------------------

    @property
    def base_ring(self) -> tuple[str, ...]:
        return self.twist.ring

    def deg_z(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int) -> Poly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly.zero(self.base_ring)

    def to_poly(self) -> Poly:
        """The underlying commutative expression in base vars plus z."""
        ring = self.base_ring + ("z",)
        return Poly.from_strata(ring, "z", dict(enumerate(self.coeffs)))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "SkewPoly") -> None:
        if self.twist is not other.twist and self.twist != other.twist:
            raise ValueError("skew polynomials over different twists")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.twist, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.twist, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.twist, [-c for c in self.coeffs])

    def _z_times(self) -> "SkewPoly":
        """Left multiplication by z: z*(d z^j) = d z^(j+1) + twist(d) z^j."""
        ring = self.base_ring
        out = [Poly.zero(ring)] * (len(self.coeffs) + 1)
        for j, d in enumerate(self.coeffs):
            out[j + 1] = out[j + 1] + d
            out[j] = out[j] + self.twist.apply(d)
        return SkewPoly(self.twist, out)

    def __mul__(self, other):
        if isinstance(other, (Poly, GaussRat, int)):
            if isinstance(other, Poly):
                other = SkewPoly.from_base(self.twist, other)
            else:
                other = SkewPoly.from_base(
                    self.twist, Poly.constant(self.base_ring, other)
                )
        self._check(other)
        total = SkewPoly(self.twist, ())
        shifted = other
        for i, d in enumerate(self.coeffs):
            if d:
                total = total + SkewPoly(self.twist, [d * c for c in shifted.coeffs])
            if i + 1 < len(self.coeffs):
                shifted = shifted._z_times()
        return total

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
        return self.twist == other.twist and self.coeffs == other.coeffs

    def __repr__(self):
        return f"<skew {render(self.to_poly())}>"


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

    The twist must be h*delta; then every commutator coefficient has
    no h^0 stratum, its quotient by h at h = 0 is its h^1 stratum, and
    these strata form the z-bracket of the images of u and v in the
    commutative specialization.
    """
    unquantize(u.twist)  # validates the twist shape
    w = commutator(u, v)
    base = tuple(v2 for v2 in u.twist.ring if v2 != "h")
    ring = base + ("z",)
    strata = {}
    for k, c in enumerate(w.coeffs):
        hs = c.strata("h")
        if 0 in hs:
            raise ArithmeticError("commutator coefficient not divisible by h")
        strata[k] = hs.get(1, Poly.zero(base))
    return Poly.from_strata(ring, "z", strata)


def specialize_classical(u: SkewPoly) -> Poly:
    """Image of u at h = 0 with z commutative: the h^0 strata of its coefficients."""
    base = tuple(v for v in u.twist.ring if v != "h")
    ring = base + ("z",)
    strata = {k: c.strata("h").get(0, Poly.zero(base)) for k, c in enumerate(u.coeffs)}
    return Poly.from_strata(ring, "z", strata)
