"""Zero-dimensional system solving and linear solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import rand_gauss, rand_poly
from oracles import groebner_by_sympy, roots_by_sympy
from poissonore import GaussRat, I, ONE, Poly, SolutionFamily, ZERO
from poissonore.polycore import (
    GREVLEX,
    LEX,
    groebner_basis,
    solve_linear,
    solve_system,
    univariate_roots,
)
from poissonore.polycore import solve as solve_module
from poissonore.polycore.groebner import minimal_polynomial

RING = ("x", "y")
X = Poly.var(RING, "x")
Y = Poly.var(RING, "y")


def _coeff_list(p: Poly) -> list[GaussRat]:
    # ascending powers of the single variable
    out = [GaussRat() for _ in range(p.total_degree() + 1)]
    for (k,), c in p.terms.items():
        out[k] = c
    return out


def test_univariate_roots_complete_over_gaussians():
    ring = ("x",)
    x = Poly.var(ring, "x")
    assert set(univariate_roots(_coeff_list(x ** 2 + 1))) == {I, -I}
    assert univariate_roots(_coeff_list(x ** 2 - 2)) == []
    roots = univariate_roots(_coeff_list((x - 1) ** 2 * (x + 2)))
    assert set(roots) == {GaussRat(1), GaussRat(-2)}
    assert univariate_roots(_coeff_list(x * 2 + 3)) == [GaussRat.coerce(-3) / 2]


def test_univariate_roots_leaves_its_argument():
    c = [GaussRat(-1), ZERO, ONE, ZERO]
    assert univariate_roots(c) == [GaussRat(-1), ONE]
    assert c == [GaussRat(-1), ZERO, ONE, ZERO]


def test_univariate_roots_random_products():
    rng = random.Random(501)
    ring = ("x",)
    x = Poly.var(ring, "x")
    for _ in range(40):
        planted = {rand_gauss(rng) for _ in range(rng.randint(1, 3))}
        p = Poly.one(ring)
        for r in planted:
            p = p * (x - Poly.constant(ring, r))
        assert set(univariate_roots(_coeff_list(p))) == planted


# t^d - c has no root in QQ(i), so it is irreducible over QQ(i) (d = 2, 3):
# c = 2, -3, 3 is rational and not a square or cube there, and the
# others have a norm (2, 5, 10) that is neither a square nor a cube
_IRREDUCIBLE = [(2, GaussRat(2)), (2, GaussRat(-3)), (2, GaussRat(1, 1)), (2, GaussRat(3, -1)),
                (3, GaussRat(2)), (3, GaussRat(3)), (3, GaussRat(1, 2)), (3, GaussRat(3, -1))]


def test_univariate_roots_match_sympy_factorization():
    rng = random.Random(503)
    ring = ("x",)
    x = Poly.var(ring, "x")
    big = 0
    for k in range(100):
        span = 10**3 if k % 3 == 0 else 9
        p, planted = Poly.one(ring), set()
        if k == 1:  # 5 and 13 divide N(lc), so the root finder skips both primes
            p, planted = x * GaussRat(4, 7) - GaussRat(1, -2), {GaussRat(1, -2) / GaussRat(4, 7)}
        for _ in range(rng.randint(1, 3)):
            u = GaussRat(rng.randint(1, span), rng.randint(-span, span))
            v = GaussRat(rng.randint(-span, span), rng.randint(-span, span))
            planted.add(v / u)
            p = p * (x * u - Poly.constant(ring, v)) ** rng.choice((1, 1, 1, 2))
        if rng.random() < 0.5:
            d, c = rng.choice(_IRREDUCIBLE)
            shift = x * (rand_gauss(rng) or ONE) + Poly.constant(ring, rand_gauss(rng))
            p = p * (shift ** d - Poly.constant(ring, c))
        coeffs = _coeff_list(p * (rand_gauss(rng) or ONE))
        assert k != 1 or coeffs[-1].norm().numerator % 65 == 0
        big += coeffs[-1].norm() > 10**12
        assert set(univariate_roots(coeffs)) == planted == roots_by_sympy(coeffs), k
    assert big >= 15


def test_solve_system_points():
    sols = solve_system([X ** 2 - 1, Y - X], RING)
    assert sols == sorted(
        sols, key=lambda s: tuple(s[v].sort_key() for v in RING)
    )
    assert {(s["x"], s["y"]) for s in sols} == {
        (GaussRat(1), GaussRat(1)),
        (GaussRat(-1), GaussRat(-1)),
    }


def test_solve_system_gaussian_points():
    sols = solve_system([X ** 2 + 1, Y], RING)
    assert {s["x"] for s in sols} == {I, -I}
    assert all(s["y"] == GaussRat() for s in sols)


def test_solve_system_inconsistent():
    assert solve_system([X, X + 1], RING) == []


def test_solve_system_raises_on_families():
    with pytest.raises(SolutionFamily):
        solve_system([X * Y], RING)
    with pytest.raises(SolutionFamily):
        solve_system([X - Y], RING)


def test_solve_linear():
    one = GaussRat(1)
    two = GaussRat(2)
    # x + y = 3, x - y = 1
    sol = solve_linear([[one, one], [one, -one]], [GaussRat(3), one])
    assert sol == [two, one]
    # inconsistent
    assert solve_linear([[one, one], [one, one]], [one, two]) is None
    # underdetermined: free unknowns pinned to zero
    sol = solve_linear([[one, one]], [two])
    assert sol == [two, GaussRat()]
    # repeated calls agree
    assert sol == solve_linear([[one, one]], [two])


def _planted_component(rng: random.Random, ring: tuple[str, ...]) -> tuple[list[Poly], set]:
    """Generators of a zero-dimensional ideal and its QQ(i)-rational points.

    One of: a rational point; a rational point with multiplicity (the
    square of its maximal ideal); two conjugate points on a line over
    x^2 = c, rational for c = -1 (x = i, -i) and not for c = 2, -2, 3.
    """
    def small():
        return GaussRat(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                        Fraction(rng.choice((0, 0, 1, -1)), rng.randint(1, 3)))

    xs = [Poly.var(ring, v) for v in ring]
    point = tuple(small() for _ in ring)
    linear = [x - Poly.constant(ring, a) for x, a in zip(xs, point)]
    kind = rng.randrange(3)
    if kind == 0:
        return linear, {point}
    if kind == 1:
        return [f * g for i, f in enumerate(linear) for g in linear[i:]], {point}
    c = rng.choice([-1, 2, -2, 3])
    rest = [x - xs[0] * small() - Poly.constant(ring, a) for x, a in zip(xs[1:], point[1:])]
    # each rest generator is x_k - (b*x + a), so x_k - g is b*x + a
    points = {
        (r,) + tuple((x - g).evaluate({ring[0]: r}) for x, g in zip(xs[1:], rest))
        for r in ((I, -I) if c == -1 else ())
    }
    return [xs[0] ** 2 - c] + rest, points


def _planted_ideal(rng: random.Random, ring: tuple[str, ...]) -> tuple[list[Poly], set]:
    """Scrambled generators of a product of planted components, and its QQ(i)-rational points."""
    gens, planted = [Poly.one(ring)], set()
    for _ in range(rng.randint(1, 2 if len(ring) == 3 else 3)):
        comp, points = _planted_component(rng, ring)
        gens = [f * g for f in gens for g in comp]  # the product ideal: the union of the zeros
        planted |= points
    for _ in range(3 if len(gens) > 1 else 0):  # elementary operations keep the ideal
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = gens[i] + rand_poly(rng, ring, 1, terms=2) * gens[j]
    return gens, planted


def _in_var(coeffs: list[GaussRat], ring: tuple[str, ...], v: str) -> Poly:
    """sum(coeffs[k] * v**k) as a polynomial over ring."""
    return sum((Poly.var(ring, v) ** k * c for k, c in enumerate(coeffs)), Poly.zero(ring))


def test_minimal_polynomial_of_the_last_variable_is_the_last_lex_element():
    rng = random.Random(502)
    for k in range(12):
        ring = ("x", "y", "z") if k % 4 == 3 else RING
        gens, planted = _planted_ideal(rng, ring)
        grevlex = groebner_basis(gens, GREVLEX)
        lex = groebner_basis(gens, LEX)
        assert lex == groebner_by_sympy(gens, LEX), k
        last = Poly.var(ring, ring[-1])
        assert _in_var(minimal_polynomial(grevlex, last), ring, ring[-1]) == lex[-1], k
        sols = solve_system(gens, ring)
        found = [tuple(s[v] for v in ring) for s in sols]
        assert len(found) == len(set(found)) and set(found) == planted, k


def test_minimal_polynomial_matches_sympy():
    # the oracle eliminates everything but a new last variable t from
    # (gens, t - u): the last element of that lex basis generates the
    # polynomials in u that vanish modulo (gens)
    rng = random.Random(503)
    for k in range(12):
        ring = ("x", "y", "z") if k % 4 == 3 else RING
        gens, _ = _planted_ideal(rng, ring)
        grevlex = groebner_basis(gens, GREVLEX)
        xs = [Poly.var(ring, v) for v in ring]
        c = GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
        for u in (xs[-1], xs[0] + xs[1] * c, Poly.constant(ring, c)):
            ext = ring + ("t",)
            graph = [g.embed(ext) for g in gens] + [Poly.var(ext, "t") - u.embed(ext)]
            lex = groebner_by_sympy(graph, LEX)
            assert _in_var(minimal_polynomial(grevlex, u), ext, "t") == lex[-1], (k, u)


def test_solve_system_on_a_product_ideal_with_fractional_points():
    # 12 generators, products of three components: the square of the
    # maximal ideal of p, (x^2 + 2, y - 1 + i/3) with no QQ(i) point, and
    # the maximal ideal of q; scrambled by elementary operations.  The
    # solver branches on the QQ(i) roots of univariate polynomials of
    # degrees 5 and 3 with fractional Gaussian coefficients
    def const(re, im):
        return Poly.constant(RING, GaussRat(re, im))

    p, q = (const(-1, Fraction(-1, 2)),) * 2, (const(2, Fraction(1, 2)), const(1, Fraction(1, 2)))
    square = [(X - p[0]) ** 2, (X - p[0]) * (Y - p[1]), (Y - p[1]) ** 2]
    pair = [X ** 2 + 2, Y - const(1, Fraction(-1, 3))]
    gens = [f * g * h for f in square for g in pair for h in (X - q[0], Y - q[1])]
    gens[4] = gens[4] - (X * 2 + Y * Fraction(2, 3)) * gens[2]
    gens[10] = gens[10] + gens[4] * Fraction(1, 2)
    gens[3] = gens[3] + (Y * -3 + 3) * gens[8]
    sols = solve_system(gens, RING)
    assert [(s["x"], s["y"]) for s in sols] == [
        (GaussRat(-1, Fraction(-1, 2)), GaussRat(-1, Fraction(-1, 2))),
        (GaussRat(2, Fraction(1, 2)), GaussRat(1, Fraction(1, 2))),
    ]


def test_minimal_polynomial_of_the_unit_ideal():
    assert minimal_polynomial([Poly.one(RING)], X) == [ONE]


def test_solution_family_names_a_variable_without_a_grevlex_pure_power():
    # no linear pivot and no univariate equation, so the solver reaches
    # its Groebner step; the grevlex leading monomial of x^2 - y^3 is
    # y^3, which leaves x without a pure power (lex would lead with x^2)
    with pytest.raises(SolutionFamily, match="^no univariate constraint isolates 'x'$"):
        solve_system([X ** 2 - Y ** 3], RING)
    with pytest.raises(SolutionFamily, match="^no univariate constraint isolates 'x'$"):
        solve_system([X * Y - 1], RING)


def test_solve_system_never_asks_for_a_lex_basis(monkeypatch):
    # x^2 + y^2 = 5, x*y = 2 has no linear pivot and no univariate
    # equation, so the solver reaches its Groebner step
    orders = []

    def spy(gens, order=GREVLEX):
        orders.append(order.tag)
        return groebner_basis(gens, order)

    monkeypatch.setattr(solve_module, "groebner_basis", spy)
    sols = solve_system([X ** 2 + Y ** 2 - 5, X * Y - 2], RING)
    assert {(s["x"], s["y"]) for s in sols} == {
        (GaussRat(a), GaussRat(b)) for a, b in ((1, 2), (2, 1), (-1, -2), (-2, -1))
    }
    assert orders and "lex" not in orders


def test_univariate_roots_computes_a_gcd_only_for_a_repeated_factor(monkeypatch):
    # (t - 1)(t - 2)(t - 3) is squarefree mod 5, the first split prime
    # (i -> 2 there), which proves it squarefree: no gcd is needed
    calls = []
    real_gcd = solve_module.gcd_poly

    def spy(p, q):
        calls.append((p, q))
        return real_gcd(p, q)

    monkeypatch.setattr(solve_module, "gcd_poly", spy)
    ring = ("t",)
    t = Poly.var(ring, "t")
    simple = (t - 1) * (t - 2) * (t - 3)
    assert univariate_roots(_coeff_list(simple)) == [GaussRat(1), GaussRat(2), GaussRat(3)]
    assert calls == []
    assert univariate_roots(_coeff_list(simple * (t - 1))) == [GaussRat(1), GaussRat(2), GaussRat(3)]
    assert len(calls) == 1
