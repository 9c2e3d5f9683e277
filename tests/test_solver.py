"""Zero-dimensional system solving and linear solving."""

from __future__ import annotations

import random

import pytest

from conftest import rand_gauss
from poissonore import GaussRat, I, ONE, Poly, SolutionFamily, ZERO
from poissonore.polycore import solve_linear, solve_system, univariate_roots

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
