"""Skew-polynomial arithmetic and the semiclassical limit."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import rand_derivation, rand_poly
from oracles import ore_product_by_leibniz
from poissonore import (
    DeltaBracket,
    GaussRat,
    IdealPres,
    Poly,
    SkewPoly,
    commutator,
    derivation,
    is_delta_ideal,
    parse_poly,
    quantize,
    render,
    semiclassical_bracket,
    specialize_classical,
    unquantize,
)

BASE = ("x", "y")


def _gwj():
    return derivation(BASE, x=parse_poly("2*y", BASE), y=parse_poly("y^2 + x", BASE))


def _weyl():
    return derivation(("x",), x=Poly.one(("x",)))


def _ox():
    return derivation(BASE, x=parse_poly("y^3", BASE), y=parse_poly("1 - x*y", BASE))


def _rand_skew(rng, twist, zdeg=3, cdeg=2):
    coeffs = [rand_poly(rng, twist.ring, cdeg, terms=3) for _ in range(zdeg + 1)]
    return sum(
        (SkewPoly.from_base(twist, c) * SkewPoly.z(twist) ** k for k, c in enumerate(coeffs)),
        SkewPoly.from_base(twist, Poly.zero(twist.ring)),
    )


def test_weyl_relation():
    d = _weyl()
    z = SkewPoly.z(d)
    x = SkewPoly.from_base(d, Poly.var(("x",), "x"))
    assert render((z * x).to_poly()) == "x*z + 1"
    assert render(commutator(z, x).to_poly()) == "1"
    assert render((x * z).to_poly()) == "x*z"


def test_left_normal_form():
    d = _gwj()
    z = SkewPoly.z(d)
    y = SkewPoly.from_base(d, Poly.var(BASE, "y"))
    p = z * z * y
    # z^2 y = y z^2 + 2 d(y) z + d(d(y))
    dy = d.image("y")
    expected = (
        SkewPoly.from_base(d, Poly.var(BASE, "y")) * z * z
        + SkewPoly.from_base(d, dy * 2) * z
        + SkewPoly.from_base(d, d.apply(dy))
    )
    assert p.to_poly() == expected.to_poly()


def test_product_matches_leibniz_oracle():
    rng = random.Random(806)
    for twist in (_weyl(), _gwj(), _ox(), quantize(_gwj())):
        for _ in range(8):
            u, v = (
                SkewPoly(twist, [rand_poly(rng, twist.ring, 2, terms=3) for _ in range(4)])
                for _ in range(2)
            )
            uv = ore_product_by_leibniz(twist, u.to_poly(), v.to_poly())
            vu = ore_product_by_leibniz(twist, v.to_poly(), u.to_poly())
            assert (u * v).to_poly() == uv
            assert commutator(u, v).to_poly() == uv - vu


def test_coeffs_contract():
    d = _gwj()
    x, y, zero = Poly.var(BASE, "x"), Poly.var(BASE, "y"), Poly.zero(BASE)
    assert SkewPoly(d, [x, zero, y, zero, zero]).coeffs == (x, zero, y)
    assert SkewPoly(d, ()).coeffs == ()
    assert SkewPoly(d, [zero, zero]).coeffs == ()
    assert not SkewPoly(d, [zero])
    # coefficients over a smaller ring are embedded in the twist's ring
    twist = quantize(d)
    assert SkewPoly(twist, [x]).coeffs == (x.embed(twist.ring),)
    rng = random.Random(807)
    for _ in range(10):
        u = _rand_skew(rng, d)
        assert SkewPoly(d, u.coeffs) == u


def test_foreign_operands():
    # sums take skew polynomials only; products also take base polynomials and exact scalars
    d = _gwj()
    z = SkewPoly.z(d)
    for other in (1, 1.5, Fraction(1, 2), Poly.var(BASE, "x")):
        with pytest.raises(TypeError):
            z + other
        with pytest.raises(TypeError):
            z - other
    with pytest.raises(TypeError):
        z * 1.5
    half = GaussRat(Fraction(1, 2))
    assert z * Fraction(1, 2) == z * half == SkewPoly.from_base(d, Poly.constant(BASE, half)) * z


def test_left_multiplication_by_base_elements():
    # a * u multiplies each coefficient of u by a; z*a differs from a*z
    d = _gwj()
    z = SkewPoly.z(d)
    x = Poly.var(BASE, "x")
    u = z ** 2 + SkewPoly.from_base(d, x + 1) * z
    for a in (x, x * x - GaussRat(0, 2), 2, Fraction(-3, 4), GaussRat(Fraction(1, 2), 3)):
        base = Poly.constant(BASE, a) if not isinstance(a, Poly) else a
        expected = SkewPoly(d, [base * c for c in u.coeffs])
        assert a * u == SkewPoly.from_base(d, base) * u == expected
    assert x * z == SkewPoly(d, [Poly.zero(BASE), x]) != z * x
    assert 2 * z == z * 2
    for other in (1.5, "x", None):
        with pytest.raises(TypeError):
            other * z


def test_twist_ring_with_z_is_refused():
    ring = ("x", "z")
    d = derivation(ring, x=Poly.one(ring), z=Poly.zero(ring))
    with pytest.raises(ValueError):
        SkewPoly(d, [Poly.var(ring, "z")])
    with pytest.raises(ValueError):
        SkewPoly.z(d)


def test_to_poly_roundtrip():
    d = _gwj()
    rng = random.Random(801)
    for _ in range(30):
        u = _rand_skew(rng, d)
        assert SkewPoly.from_poly(d, u.to_poly()).to_poly() == u.to_poly()


def test_associativity_random():
    rng = random.Random(802)
    d = _gwj()
    for _ in range(25):
        u = _rand_skew(rng, d, zdeg=2, cdeg=1)
        v = _rand_skew(rng, d, zdeg=2, cdeg=1)
        w = _rand_skew(rng, d, zdeg=2, cdeg=1)
        assert ((u * v) * w).to_poly() == (u * (v * w)).to_poly()
        assert ((u + v) * w).to_poly() == (u * w + v * w).to_poly()


def test_commutator_identities():
    rng = random.Random(803)
    d = _gwj()
    for _ in range(15):
        u = _rand_skew(rng, d, zdeg=2, cdeg=1)
        v = _rand_skew(rng, d, zdeg=2, cdeg=1)
        assert commutator(u, u).to_poly().is_zero()
        assert commutator(u, v).to_poly() == -commutator(v, u).to_poly()


def test_quantize_shape():
    d = _gwj()
    twist = quantize(d)
    assert twist.ring == ("x", "y", "h")
    h = Poly.var(twist.ring, "h")
    assert twist.image("x") == h * parse_poly("2*y", twist.ring)
    assert twist.image("h").is_zero()
    assert unquantize(twist) == d
    with pytest.raises(ValueError):
        quantize(derivation(("x", "h"), x=Poly.one(("x", "h")), h=Poly.zero(("x", "h"))))


def test_unquantize_rejects_bad_twists():
    d = _gwj()
    dh = d.extend_zero("h")
    h = Poly.var(dh.ring, "h")
    # not divisible by h: no h^1 part, or an h^0 part beside one
    mixed = dh.scale(h + 1)
    for twist in (dh, mixed):
        with pytest.raises(ValueError):
            unquantize(twist)


def test_unquantize_of_a_higher_h_power_is_zero():
    dh = _gwj().extend_zero("h")
    h = Poly.var(dh.ring, "h")
    # h^2*delta has no h^1 stratum, so its limit at h = 0 vanishes
    zero = Poly.zero(BASE)
    assert unquantize(dh.scale(h * h)) == derivation(BASE, x=zero, y=zero)


def test_semiclassical_matches_bracket():
    rng = random.Random(804)
    for delta in (_weyl(), _gwj()):
        twist = quantize(delta)
        structure = DeltaBracket(delta)
        for _ in range(40):
            u = _rand_skew(rng, twist, zdeg=3, cdeg=2)
            v = _rand_skew(rng, twist, zdeg=3, cdeg=2)
            sc = semiclassical_bracket(u, v)
            ubar = u.to_poly().substitute("h", 0)
            vbar = v.to_poly().substitute("h", 0)
            assert sc == structure.bracket(ubar, vbar)


def test_specialize_classical():
    d = _gwj()
    twist = quantize(d)
    rng = random.Random(805)
    u = _rand_skew(rng, twist, zdeg=2, cdeg=1)
    v = _rand_skew(rng, twist, zdeg=2, cdeg=1)
    # at h = 0 multiplication is commutative
    assert specialize_classical(u * v) == specialize_classical(u) * specialize_classical(v)


def test_specialize_classical_refuses_an_h_free_twist():
    weyl = _weyl()
    for u in (SkewPoly.z(weyl), SkewPoly.from_base(weyl, Poly.zero(weyl.ring))):
        with pytest.raises(ValueError, match="^twist does not involve h$"):
            specialize_classical(u)


def test_extended_ideal_stable():
    d = _gwj()
    dz = d.extend_zero("z")
    ring = dz.ring
    good = IdealPres(ring, [parse_poly("y^2 + x + 1", ring)])
    check = is_delta_ideal(good, dz)
    assert check
    bad = IdealPres(ring, [parse_poly("x", ring)])
    check = is_delta_ideal(bad, dz)
    assert not check
    assert check.witness is not None and check.residue is not None
