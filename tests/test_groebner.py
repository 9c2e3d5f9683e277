"""Ideal presentations, reduction, and elimination."""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import rand_nonzero_poly, rand_poly
from oracles import groebner_by_sympy, reduced_by_sympy, s_polynomial
from poissonore import GaussRat, IdealPres, Poly, parse_poly, render
from poissonore.polycore import BlockElim, GREVLEX, LEX, groebner_basis, reduce_full
from poissonore.polycore.groebner import buchberger
from poissonore.polycore.poly import mono_divides

RING = ("x", "y")
X = Poly.var(RING, "x")
Y = Poly.var(RING, "y")


def test_membership_and_normal_form():
    ideal = IdealPres(RING, [X ** 2 + Y, X * Y])
    assert ideal.contains_poly((X ** 2 + Y) * Y)
    assert not ideal.contains_poly(X + Y)
    basis = ideal.basis(GREVLEX)
    for g in basis:
        assert ideal.normal_form(g).is_zero()
        # the stored basis is reduced: no element shrinks against the rest
        assert reduce_full(g, [b for b in basis if b != g], GREVLEX) == g
    p = X ** 3 + Y ** 3
    nf = ideal.normal_form(p)
    assert ideal.normal_form(nf) == nf
    assert ideal.contains_poly(p - nf)


def test_normal_form_is_linear():
    ideal = IdealPres(RING, [X ** 2 - Y])
    rng = random.Random(401)
    for _ in range(40):
        p = rand_poly(rng, RING, 3)
        q = rand_poly(rng, RING, 3)
        assert ideal.normal_form(p + q) == ideal.normal_form(p) + ideal.normal_form(q)


def test_same_ideal_across_presentations():
    a = IdealPres(RING, [X + Y, X - Y])
    b = IdealPres(RING, [X, Y])
    assert a.same_ideal(b)
    assert a.contains_ideal(b) and b.contains_ideal(a)
    c = IdealPres(RING, [X])
    assert b.contains_ideal(c)
    assert not c.contains_ideal(b)


def test_unit_ideal():
    assert IdealPres(RING, [X, X + 1]).is_unit()
    assert not IdealPres(RING, [X, Y]).is_unit()
    assert not IdealPres(RING, []).is_unit()


def test_zero_ideal():
    zero = IdealPres(RING, [])
    assert list(zero.basis_strings()) == []
    assert zero.contains_poly(Poly.zero(RING))
    assert not zero.contains_poly(X)


def test_basis_strings_stable_under_generator_order():
    gens = [X ** 2 + Y, X * Y + X, Y ** 3]
    spellings = set()
    for seed in range(6):
        rng = random.Random(seed)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        spellings.add(tuple(IdealPres(RING, shuffled).basis_strings()))
    assert len(spellings) == 1


def test_lex_basis_differs():
    ideal = IdealPres(RING, [X ** 2 + Y ** 3, X * Y - 1])
    grev = tuple(ideal.basis_strings(GREVLEX))
    lex = tuple(ideal.basis_strings(LEX))
    assert grev != lex
    assert IdealPres(RING, [Poly.zero(RING)]).same_ideal(IdealPres(RING, []))


def test_elimination_of_a_parameter():
    # x = t^2, y = t^3 parametrizes y^2 = x^3
    ring = ("t", "x", "y")
    t = Poly.var(ring, "t")
    x = Poly.var(ring, "x")
    y = Poly.var(ring, "y")
    basis = groebner_basis([x - t ** 2, y - t ** 3], BlockElim(1))
    eliminated = [g for g in basis if not g.uses("t")]
    assert len(eliminated) == 1
    assert eliminated[0].monic() in (x ** 3 - y ** 2, (y ** 2 - x ** 3).monic())
    assert render(eliminated[0].monic()) in ("x^3 - y^2", "y^2 - x^3")


def test_buchberger_closure_random():
    rng = random.Random(402)
    for _ in range(15):
        gens = [rand_poly(rng, RING, 2, terms=3) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        ideal = IdealPres(RING, gens)
        # random combinations stay members
        p = sum((rand_poly(rng, RING, 2, terms=2) * g for g in gens), Poly.zero(RING))
        assert ideal.contains_poly(p)


def test_division_algorithm_random():
    # divisor lists are arbitrary, not Groebner bases, and may hold zero;
    # on huge Gaussian coefficients the fraction-free loop must give the
    # exact remainder over QQ(i), not a multiple of it
    ring = ("x", "y", "z")
    rng = random.Random(404)

    def huge(g):
        return Poly(ring, {e: c * _big(rng) for e, c in g.terms.items()})

    nonreal = 0
    for order in (GREVLEX, LEX, BlockElim(1)):
        for k in range(46):
            p = rand_poly(rng, ring, 4, terms=6, imag=True)
            divisors = [rand_poly(rng, ring, 2, terms=3) for _ in range(rng.randint(0, 3))]
            if k >= 40:
                p, divisors = huge(p), [huge(g) for g in divisors]
                nonreal += sum(1 for g in divisors if g and g.leading_coeff(order).im)
            r = reduce_full(p, divisors, order)
            assert r == reduced_by_sympy(p, divisors, order), (order.tag, k)
            lms = [g.leading_monomial(order) for g in divisors if g]
            assert not any(mono_divides(lm, e) for lm in lms for e in r.terms)
    assert nonreal >= 15, nonreal
    for _ in range(4):
        # generators vanish at the origin and p does not, so p is no member
        gens = [_trim(huge(rand_nonzero_poly(rng, ring, 2, terms=3))) for _ in range(2)]
        ideal = IdealPres(ring, [g or Poly.var(ring, "x") for g in gens])
        p, c = huge(rand_nonzero_poly(rng, ring, 4, terms=6, imag=True)) + _big(rng), _big(rng)
        nf = ideal.normal_form(p)
        assert nf and nf == reduced_by_sympy(p, ideal.basis(), GREVLEX)
        assert ideal.normal_form(p * c) == nf * c


def _trim(p: Poly, below=None, order=GREVLEX) -> Poly:
    """p without its constant term, and without its terms at or above below."""
    return Poly(
        p.ring,
        {
            e: c
            for e, c in p.terms.items()
            if any(e) and (below is None or order.key(e) < order.key(below))
        },
    )


def test_reduced_basis_matches_sympy():
    # every generator vanishes at the origin, so no ideal is the unit ideal
    rng = random.Random(403)
    for k in range(18):
        drawn = (rand_nonzero_poly(rng, RING, 3, terms=3, imag=True) for _ in range(2))
        gens = [g for g in map(_trim, drawn) if g]
        tail = rand_poly(rng, RING, 3, terms=3, imag=True)
        lift = Poly.var(RING, rng.choice(RING))
        for order in (GREVLEX, LEX):
            ideal = list(gens)
            # one more generator, with an equal or a divisible leading monomial
            if k % 3 == 0:
                lm = gens[0].leading_monomial(order)
                ideal.append(gens[0] * 3 + _trim(tail, lm, order))
            elif k % 3 == 1:
                lm = (lift * gens[0]).leading_monomial(order)
                ideal.append(lift * gens[0] + _trim(tail, lm, order))
            assert groebner_basis(ideal, order) == groebner_by_sympy(ideal, order)
            assert buchberger(ideal, order) == groebner_by_sympy(ideal, order)


def _big(rng: random.Random) -> GaussRat:
    """A non-real scalar whose parts have 13-digit numerators and denominators."""
    re, im, d = (rng.randint(10**12, 10**13) for _ in range(3))
    return GaussRat(Fraction(re, d), Fraction(-im, d + 1))


def test_fraction_free_basis_matches_sympy():
    # Buchberger runs over Z[i]: Gaussian leading coefficients, huge
    # numerators and denominators, and unit ideals, in three orders
    ring = ("x", "y", "z")
    one = Poly.one(ring)
    rng = random.Random(406)
    units = nonreal = 0
    for order in (GREVLEX, LEX, BlockElim(1)):
        for k in range(8):
            gens = []
            for _ in range(rng.randint(2, 3) if k % 2 else 4):
                g = rand_nonzero_poly(rng, ring, 2, terms=3, imag=True)
                if k % 2:  # a common zero at the origin, so never the unit ideal
                    g = _trim(g) or Poly.var(ring, rng.choice(ring))
                gens.append(Poly(ring, {e: c * _big(rng) for e, c in g.terms.items()}))
            nonreal += sum(1 for g in gens if g.leading_coeff(order).im)
            basis = groebner_basis(gens, order)
            assert basis == groebner_by_sympy(gens, order), (order.tag, k)
            units += basis == [one]
    assert units >= 3 and nonreal >= 40, (units, nonreal)


# The coefficient system that `factorizations` solves when it splits
# 3/4*x^4 + (1/2-1/2*i)*x^3*y - 1/2*x^2*y^2 - 9/2*x^3 + (-3+3*i)*x^2*y
# + 3*x*y^2 - 9/2*i*x^2 + (-3-3*i)*x*y + 3*i*y^2 into two quadrics,
# after the solver's linear eliminations.  Its remainders have Gaussian
# leading coefficients; kept with them, Gaussian factors build up in the
# fraction-free run that no integer content removes.
QUARTIC_SPLIT = [
    "v0^3 + (-2/3+2/3*i)*v0^2 - 2*v0*v1 - 2/3*v0 + (2/3-2/3*i)*v1",
    "v0^2*v1 + (-2/3+2/3*i)*v0*v1 - v1^2 - 2/3*v1",
    "3*v0^2*v2 + 6*v0^2 + (-4/3+4/3*i)*v0*v2 - 2*v1*v2 - 2*v0*v3 + (-4+4*i)*v0 - 6*v1 - 2/3*v2"
    " + (2/3-2/3*i)*v3 - 4",
    "2*v0*v1*v2 + v0^2*v3 + 6*v0*v1 + (-2/3+2/3*i)*v1*v2 + (-2/3+2/3*i)*v0*v3 - 2*v1*v3"
    " + (-4+4*i)*v1 - 2/3*v3",
    "3*v0*v2^2 + 12*v0*v2 + (-2/3+2/3*i)*v2^2 - 2*v2*v3 - 2*v0*v4 - 6*i*v0 + (-4+4*i)*v2 - 6*v3"
    " + (2/3-2/3*i)*v4 + (4+4*i)",
    "v1*v2^2 + 2*v0*v2*v3 + v0^2*v4 + 6*v1*v2 + 6*v0*v3 + (-2/3+2/3*i)*v2*v3 - v3^2"
    " + (-2/3+2/3*i)*v0*v4 - 2*v1*v4 - 6*i*v1 + (-4+4*i)*v3 - 2/3*v4 - 4*i",
    "v2^3 + 6*v2^2 - 2*v2*v4 - 6*i*v2 - 6*v4",
    "v2^2*v3 + 2*v0*v2*v4 + 6*v2*v3 + 6*v0*v4 + (-2/3+2/3*i)*v2*v4 - 2*v3*v4 - 6*i*v3"
    " + (-4+4*i)*v4",
    "v2^2*v4 + 6*v2*v4 - v4^2 - 6*i*v4",
]


def test_quartic_split_system_matches_sympy():
    ring = ("v0", "v1", "v2", "v3", "v4")
    gens = [parse_poly(g, ring) for g in QUARTIC_SPLIT]
    assert groebner_basis(gens, GREVLEX) == groebner_by_sympy(gens, GREVLEX)


def test_buchberger_output_satisfies_buchbergers_criterion():
    # the raw output, not the reduced basis: every S-polynomial of it and
    # every input generator reduces to zero by it, so the pair criteria
    # dropped no pair that was needed and no dropped element is missed
    ring = ("x", "y", "z")
    one = Poly.one(ring)
    rng = random.Random(405)
    units = 0
    for order in (GREVLEX, LEX, BlockElim(1)):
        for k in range(60):
            if k % 3 == 0:  # a common zero at the origin: larger bases, never the unit ideal
                gens = [_trim(rand_poly(rng, ring, 3, terms=3, imag=True)) for _ in range(3)]
            else:
                gens = [rand_poly(rng, ring, 3, terms=3, imag=True) for _ in range(rng.randint(1, 4))]
            if k % 5 == 1:
                gens.insert(rng.randint(0, len(gens)), Poly.constant(ring, rng.randint(1, 5)))
            out = buchberger(gens, order)
            assert all(reduce_full(g, out, order).is_zero() for g in gens)
            for i, f in enumerate(out):
                for g in out[:i]:
                    s = s_polynomial(f, g, order)
                    assert reduce_full(s, out, order).is_zero(), (order.tag, k)
            if any(g and g.is_constant() for g in gens):
                assert out == [one]
            elif out == [one]:
                units += 1  # only the S-pairs show it
            else:
                assert not any(g.is_constant() for g in out)
    assert units >= 10
