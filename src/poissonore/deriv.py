"""Derivations of polynomial rings, stored by their generator images."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .polycore import Check, GaussRat, IdealPres, Poly


class DerivationError(ValueError):
    pass


class Derivation:
    """A derivation d of QQ(i)[ring], determined by d(v) for each v.

    Images may cover only part of the ring; applying to a polynomial
    that uses an unimaged variable is an error rather than a guess.
    A scalar image (int, Fraction, GaussRat) is the constant polynomial.
    """

    __slots__ = ("ring", "images")

    def __init__(
        self, ring: tuple[str, ...], images: Mapping[str, Poly | GaussRat | int | Fraction]
    ):
        imgs = {}
        for v, p in images.items():
            if v not in ring:
                raise DerivationError(f"image given for {v!r}, not a ring variable")
            if isinstance(p, (int, Fraction, GaussRat)):
                p = Poly.constant(ring, p)
            elif not isinstance(p, Poly):
                raise DerivationError(f"image of {v!r} is a {type(p).__name__}, not a polynomial")
            imgs[v] = p.embed(ring)
        object.__setattr__(self, "ring", tuple(ring))
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def image(self, v: str) -> Poly:
        try:
            return self.images[v]
        except KeyError:
            raise DerivationError(f"no image for variable {v!r}") from None

    def apply(self, p: Poly) -> Poly:
        """d(p) = sum over variables of d(v) * dp/dv (the Leibniz extension).

        Variables with a zero image are skipped: they add nothing.
        """
        p = p.embed(self.ring)
        out = Poly.zero(self.ring)
        for v in p.used_vars():
            image = self.image(v)
            if image:
                out = out + image * p.partial(v)
        return out

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.images.values())

    def max_image_degree(self) -> int:
        """Largest total degree among images; -1 if all are zero."""
        if not self.images:
            return -1
        return max(p.total_degree() for p in self.images.values())

    def extend_zero(self, *names: str) -> "Derivation":
        """The same derivation on ring + names, with d(v) = 0 for each added v.

        A name already in the ring, or given twice, raises DerivationError.
        """
        for k, v in enumerate(names):
            if v in self.ring or v in names[:k]:
                raise DerivationError(f"{v!r} already in ring")
        ring2 = self.ring + names
        imgs = {v: p.embed(ring2) for v, p in self.images.items()}
        imgs.update(dict.fromkeys(names, Poly.zero(ring2)))
        return Derivation(ring2, imgs)

    def scale(self, c: "Poly | GaussRat | int") -> "Derivation":
        return Derivation(self.ring, {v: p * c for v, p in self.images.items()})

    def induced_on_quotient(self, ideal: IdealPres) -> "QuotientDerivation":
        """The derivation induced on ring/ideal; the ideal must be stable."""
        check = is_delta_ideal(ideal, self)
        if not check:
            raise DerivationError(
                f"ideal is not stable: d({check.witness!r}) has nonzero "
                f"normal form {check.residue!r}"
            )
        return QuotientDerivation(self, ideal)

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.ring == other.ring and self.images == other.images

    def __repr__(self):
        body = ", ".join(f"{v} -> {p!r}" for v, p in sorted(self.images.items()))
        return f"<derivation {body}>"


class QuotientDerivation:
    """Action of a stable derivation on normal-form representatives."""

    __slots__ = ("derivation", "ideal")

    def __init__(self, derivation: Derivation, ideal: IdealPres):
        object.__setattr__(self, "derivation", derivation)
        object.__setattr__(self, "ideal", ideal)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientDerivation is immutable")

    def apply(self, p: Poly) -> Poly:
        return self.ideal.normal_form(self.derivation.apply(p))


def derivation(ring: tuple[str, ...], **images: Poly | GaussRat | int | Fraction) -> Derivation:
    return Derivation(ring, images)


def exact_derivation(a: Poly) -> Derivation:
    """The bracket derivation x -> a_y, y -> -a_x of a potential a(x, y).

    The first two ring variables play x and y; a itself is a constant
    of the result.
    """
    if len(a.ring) < 2:
        raise DerivationError(f"an exact bracket needs two variables, got ring {a.ring}")
    x, y = a.ring[0], a.ring[1]
    return Derivation(a.ring, {x: a.partial(y), y: -a.partial(x)})


def is_delta_ideal(ideal: IdealPres, delta: Derivation) -> Check:
    """Whether delta maps the ideal into itself; the witness is a generator.

    The generator criterion suffices: delta(sum f_i g_i) lands in the
    ideal as soon as every delta(g_i) does, by the product rule.  On
    the Ore side, with delta the twist of A[z; delta], the same test
    decides whether the extension of the ideal is two-sided:
    z*g - g*z = delta(g) must land back in the extended ideal for every
    generator g, and then the right ideal it generates is an ideal.
    """
    return ideal.contains_all(
        (g, delta.apply(g.embed(delta.ring))) for g in ideal.generators
    )
