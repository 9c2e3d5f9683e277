"""Multivariate gcd."""

from __future__ import annotations

import random

from conftest import rand_gauss, rand_nonzero_poly, rand_poly
from oracles import gcd_by_sympy
from poissonore import Poly, exact_divide, gcd_poly
from poissonore.polycore import BlockElim
from poissonore.polycore.groebner import buchberger

RING = ("x", "y")
X = Poly.var(RING, "x")
Y = Poly.var(RING, "y")


def test_known_gcds():
    a = (X + Y) ** 2 * (X - Y)
    b = (X + Y) * (X - Y) ** 2
    assert gcd_poly(a, b).monic() == ((X + Y) * (X - Y)).monic()
    assert gcd_poly(X, Y).monic() == Poly.one(RING)
    assert gcd_poly(X * 2, X * 3).monic() == X


def test_gcd_with_zero():
    assert gcd_poly(X, Poly.zero(RING)).monic() == X
    assert gcd_poly(Poly.zero(RING), Y).monic() == Y


def test_gcd_univariate():
    ring = ("x",)
    x = Poly.var(ring, "x")
    a = (x - 1) ** 2 * (x + 2)
    b = (x - 1) * (x + 3)
    assert gcd_poly(a, b).monic() == x - 1


def test_gcd_divides_both_random():
    rng = random.Random(301)
    for _ in range(40):
        g = rand_poly(rng, RING, 2, terms=3)
        a = rand_poly(rng, RING, 2, terms=3)
        b = rand_poly(rng, RING, 2, terms=3)
        p = g * a
        q = g * b
        if not p or not q:
            continue
        d = gcd_poly(p, q)
        assert exact_divide(p, d) is not None
        assert exact_divide(q, d) is not None
        if g:
            assert exact_divide(d, gcd_poly(g, d)) is not None


def test_gcd_common_factor_recovered_random():
    rng = random.Random(302)
    for _ in range(40):
        g = rand_poly(rng, RING, 2, terms=2)
        if not g or g.is_constant():
            continue
        # coprime-by-construction cofactors keep the gcd equal to g
        p = g * (X ** 3 + 1)
        q = g * (Y ** 3 + 2)
        assert gcd_poly(p, q).monic() == g.monic()


def test_gcd_matches_sympy_random():
    """Monic gcds of g*a and g*b in (x, y, z) over QQ(i) equal sympy's.

    Four shapes take turns: random products; the (h*f1, h*g1) split of
    decompose_fg0, with f1 and g1 in (x, y); a constant g, where the gcd
    is usually 1; and a constant first input.
    """
    ring = ("x", "y", "z")
    rng = random.Random(303)
    nontrivial = 0
    for k in range(60):
        g = rand_nonzero_poly(rng, ring, 2, terms=3, imag=True)
        a = rand_nonzero_poly(rng, ring, 2, terms=3, imag=True)
        b = rand_nonzero_poly(rng, ring, 2, terms=3, imag=True)
        kind = k % 4
        if kind == 1:
            a, b = (rand_nonzero_poly(rng, ring[:2], 2, terms=3, imag=True).embed(ring) for _ in "ab")
        elif kind >= 2:
            g = Poly.constant(ring, rand_gauss(rng) or 1)
            if kind == 3:
                a = Poly.one(ring)
        p, q = g * a, g * b
        d = gcd_poly(p, q)
        assert d == gcd_by_sympy(p, q), (p, q)
        assert exact_divide(d, g.monic()) is not None
        # the eliminated basis holds the lcm as its one t-free element, monic
        ext = ("t",) + ring
        t = Poly.var(ext, "t")
        basis = buchberger([t * p.embed(ext), (1 - t) * q.embed(ext)], BlockElim(1))
        t_free = [h.embed(ring) for h in basis if not h.uses("t")]
        assert t_free == [exact_divide(p * q, d).monic()]
        nontrivial += d.total_degree() > 0
    assert nontrivial >= 20


def test_gcd_auxiliary_name_avoids_ring_variables():
    """The eliminated variable is named apart from the ring, here t and t_."""
    ring = ("t",)
    t = Poly.var(ring, "t")
    assert gcd_poly((t - 1) ** 2 * (t + 2), (t - 1) * (t + 3)) == t - 1
    assert gcd_poly(t ** 3 - t, 3 * t ** 2 - 1) == Poly.one(ring)
    ring = ("t", "t_")
    t, u = Poly.var(ring, "t"), Poly.var(ring, "t_")
    p = (t - u) * (t + 1) * (u - 2)
    q = (t - u) ** 2 * (u - 2) * (t * u + 1)
    assert gcd_poly(p, q) == (t - u) * (u - 2)
    assert gcd_poly(p, q) == gcd_by_sympy(p, q)
