"""Derivations of polynomial rings."""

from __future__ import annotations

import random

import pytest

from conftest import rand_derivation, rand_poly
from poissonore import Derivation, DerivationError, IdealPres, Poly, derivation, parse_poly
from poissonore.deriv import QuotientDerivation

RING = ("x", "y")
X = Poly.var(RING, "x")
Y = Poly.var(RING, "y")


def test_apply_on_generators():
    d = derivation(RING, x=Y * 2, y=Y * Y + X)
    assert d.image("x") == Y * 2
    assert d.apply(X * Y) == (Y * 2) * Y + X * (Y * Y + X)


def test_leibniz_random():
    rng = random.Random(601)
    for _ in range(60):
        d = rand_derivation(rng, RING)
        p = rand_poly(rng, RING, 3)
        q = rand_poly(rng, RING, 3)
        assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)
        assert d.apply(p + q) == d.apply(p) + d.apply(q)


def test_constants_die():
    d = derivation(RING, x=Poly.one(RING), y=X)
    assert d.apply(Poly.constant(RING, 5)).is_zero()


def test_partial_images():
    d = Derivation(RING, {"x": Y})
    assert d.image("x") == Y
    with pytest.raises(DerivationError):
        d.image("y")
    # applying to a polynomial that uses the missing image also fails
    with pytest.raises(DerivationError):
        d.apply(Y)
    assert d.apply(X ** 2) == X * Y * 2


def test_extend_zero():
    d = derivation(RING, x=Y, y=X)
    dz = d.extend_zero("z")
    assert dz.ring == ("x", "y", "z")
    assert dz.image("z").is_zero()
    z = Poly.var(dz.ring, "z")
    assert dz.apply(z * X.embed(dz.ring)) == z * Y.embed(dz.ring)
    with pytest.raises(DerivationError):
        d.extend_zero("x")
    # several names at once: the same as adding them one by one
    dzw = d.extend_zero("z", "w")
    assert dzw == dz.extend_zero("w")
    assert d.extend_zero() == d
    for bad in (("w", "x"), ("w", "w")):
        with pytest.raises(DerivationError):
            d.extend_zero(*bad)


def test_scale():
    d = derivation(RING, x=Y, y=X)
    h_ring = ("x", "y", "h")
    dh = d.extend_zero("h").scale(Poly.var(h_ring, "h"))
    assert dh.image("x") == Poly.var(h_ring, "h") * Y.embed(h_ring)


def test_max_image_degree():
    assert derivation(RING, x=Y * 2, y=Y * Y + X).max_image_degree() == 2
    assert derivation(RING, x=Poly.one(RING), y=Poly.one(RING)).max_image_degree() == 0


def test_is_zero():
    assert derivation(RING, x=Poly.zero(RING), y=Poly.zero(RING)).is_zero()
    assert not derivation(RING, x=X, y=Poly.zero(RING)).is_zero()


def test_quotient_derivation():
    # delta(x) = 2y, delta(y) = y^2 + x descends to A/(y^2 + x + 1)
    d = derivation(RING, x=Y * 2, y=Y * Y + X)
    stable = IdealPres(RING, [parse_poly("y^2 + x + 1", RING)])
    dbar = d.induced_on_quotient(stable)
    assert isinstance(dbar, QuotientDerivation)
    # well defined: the ideal generator maps into the ideal
    assert stable.contains_poly(d.apply(parse_poly("y^2 + x + 1", RING)))
    # representatives agree modulo the ideal
    p = X ** 2 + Y
    assert stable.contains_poly(dbar.apply(p) - d.apply(p)) or dbar.apply(p) == stable.normal_form(d.apply(p))
    unstable = IdealPres(RING, [X])
    with pytest.raises(DerivationError):
        d.induced_on_quotient(unstable)
