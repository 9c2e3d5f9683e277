"""Sparse polynomial arithmetic, orders, and rendering."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from conftest import rand_gauss, rand_nonzero_poly, rand_poly
from poissonore import GaussRat, I, Poly, SkewPoly, derivation, exact_divide, render
from poissonore.polycore import BlockElim, GREVLEX, LEX, canonical_ring, order_by_tag

RING = ("x", "y")
X = Poly.var(RING, "x")
Y = Poly.var(RING, "y")


def test_canonical_ring_precedence():
    assert canonical_ring(["y", "x"]) == ("x", "y")
    assert canonical_ring(["b", "z", "a", "h", "x"]) == ("x", "z", "h", "a", "b")
    # duplicates collapse
    assert canonical_ring(["x", "x", "y"]) == ("x", "y")


def test_construction_drops_zero_terms():
    p = Poly(RING, {(1, 0): GaussRat(0), (0, 1): GaussRat(2)})
    assert p == Y * 2
    assert Poly(RING, {}) == Poly.zero(RING)
    assert not Poly.zero(RING)
    assert Poly.one(RING).is_constant()


def test_ring_axioms_random():
    rng = random.Random(201)
    for _ in range(150):
        p = rand_poly(rng, RING, 3, imag=True)
        q = rand_poly(rng, RING, 3, imag=True)
        r = rand_poly(rng, RING, 3, imag=True)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Poly.zero(RING)
        assert p * Poly.one(RING) == p


def test_pow():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y
    assert X ** 0 == Poly.one(RING)
    with pytest.raises(ValueError):
        X ** -1


def test_orders_on_leading_terms():
    p = X ** 2 + X * Y ** 2
    assert p.leading_monomial(GREVLEX) == (1, 2)
    assert p.leading_monomial(LEX) == (2, 0)
    # head block dominates: x beats any power of y
    elim = BlockElim(1)
    q = X + Y ** 5
    assert q.leading_monomial(elim) == (1, 0)
    assert order_by_tag("lex") is LEX
    with pytest.raises(ValueError):
        order_by_tag("deglex")


def test_grevlex_tie_break():
    # same degree: the variable later in the ring loses
    p = X ** 2 + Y ** 2
    assert p.leading_monomial(GREVLEX) == (2, 0)


def test_monic_and_leading_coeff():
    p = X * 3 + Y
    assert p.monic().leading_coeff() == GaussRat(1)
    assert (p.monic() * 3) == p


def test_embed_maps_by_name():
    big = ("x", "y", "z")
    p = X + Y * 2
    q = p.embed(big)
    assert q.ring == big
    assert q.partial("z").is_zero()
    back = q.substitute("z", 0)
    assert back == p
    with pytest.raises(ValueError):
        X.embed(("y", "z"))


def test_substitute_drops_variable():
    p = X ** 2 + Y
    q = p.substitute("x", 3)
    assert q.ring == ("y",)
    assert q == Poly.var(("y",), "y") + 9
    r = p.substitute("y", X)
    assert r.ring == ("x",)


def test_partial_product_rule():
    rng = random.Random(202)
    for _ in range(80):
        p = rand_poly(rng, RING, 3)
        q = rand_poly(rng, RING, 3)
        for v in RING:
            assert (p * q).partial(v) == p.partial(v) * q + p * q.partial(v)


def test_strata_roundtrip():
    ring = ("x", "z")
    p = rand_poly(random.Random(203), ring, 4, terms=6)
    parts = p.strata("z")
    # parts live on the ring without the stratified variable
    assert all(part.ring == ("x",) for part in parts.values())
    assert Poly.from_strata(ring, "z", parts) == p


def test_from_strata_shifts_the_variable_in_place():
    ring = ("x", "z")
    x, z = Poly.var(ring, "x"), Poly.var(ring, "z")
    assert Poly.from_strata(ring, "z", {1: z}) == Poly(ring, {(0, 2): 1})
    # (x + z) + z^2 * (z - 1) = x + z - z^2 + z^3
    expected = Poly(ring, {(1, 0): 1, (0, 1): 1, (0, 2): -1, (0, 3): 1})
    assert Poly.from_strata(ring, "z", {0: x + z, 2: z - 1}) == expected
    assert Poly.from_strata(ring, "z", {0: z, 1: Poly.constant(ring, -1)}).is_zero()


def test_substitute_multi_term_value_into_several_powers():
    ry = ("y",)
    # (y + 2)^2*y + 3*(y + 2) + y^3 = 2*y^3 + 4*y^2 + 7*y + 6
    p = X ** 2 * Y + X * 3 + Y ** 3
    expected = Poly(ry, {(3,): 2, (2,): 4, (1,): 7, (0,): 6})
    assert p.substitute("x", Poly(ry, {(1,): 1, (0,): 2})) == expected
    # (i*y + 1)^3 + (i*y + 1) + y = -i*y^3 - 3*y^2 + (1 + 4*i)*y + 2
    value = Poly(ry, {(1,): I, (0,): 1})
    expected = Poly(ry, {(3,): -I, (2,): -3, (1,): I * 4 + 1, (0,): 2})
    assert (X ** 3 + X + Y).substitute("x", value) == expected
    assert (X + Y).substitute("x", Poly(ry, {(1,): -1})).is_zero()


def test_substitute_matches_evaluation_at_random_points():
    rng = random.Random(212)
    ring, rest = ("x", "y", "w"), ("y", "w")
    x = Poly.var(ring, "x")
    for _ in range(40):
        p = rand_poly(rng, ring, 3, imag=True)
        inputs = [
            p,
            Poly.zero(ring),
            rand_poly(rng, rest, 3, imag=True).embed(ring),  # free of x
            x ** rng.randint(4, 6) * rand_nonzero_poly(rng, ring, 2, imag=True) + p,
        ]
        q = rand_poly(rng, rest, 2, terms=3, imag=True)
        values = [q, q.embed(ring), Poly.zero(rest), rand_gauss(rng), rng.randint(-3, 3)]
        pt = {"y": rand_gauss(rng), "w": rand_gauss(rng)}
        for f in inputs:
            for value in values:
                at = value.evaluate(pt) if isinstance(value, Poly) else GaussRat.coerce(value)
                out = f.substitute("x", value)
                assert out.ring == rest
                assert out.evaluate(pt) == f.evaluate({**pt, "x": at})
    for f in (x + 1, Poly.zero(ring), Poly.one(ring)):
        with pytest.raises(ValueError):
            f.substitute("v", 1)
        with pytest.raises(ValueError):
            f.substitute("x", x + 1)


def test_mixed_operands_defer_to_the_other_operand_or_raise_type_error():
    p = X * Y + 1
    assert GaussRat(2) * p == p * 2 == 2 * p
    assert GaussRat(2) + p == p + 2
    assert GaussRat(2) - p == 2 - p == -(p - 2)
    assert GaussRat(Fraction(1, 2)) * p == p * Fraction(1, 2)
    skew = SkewPoly.z(derivation(RING, x=Y, y=X))
    for bad in (1.5, "a", skew):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, bad)
    for bad in (1.5, "a", None):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(GaussRat(1, 2), bad)
            with pytest.raises(TypeError):
                op(bad, GaussRat(1, 2))


def test_equal_values_hash_alike():
    for c in (0, 3, Fraction(1, 2), GaussRat(Fraction(-2, 3)), GaussRat(1, 1)):
        const = Poly.constant(RING, c)
        assert const == c and hash(const) == hash(c) == hash(GaussRat.coerce(c))
        assert c in {const} and const in {c}
    assert GaussRat(3) == 3 and 3 in {GaussRat(3)}
    assert hash(GaussRat(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_evaluate():
    p = X ** 2 + Y * I
    assert p.evaluate({"x": GaussRat(2), "y": GaussRat(0, 1)}) == GaussRat(3)


def test_degrees():
    p = X ** 2 * Y + Y
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert Poly.zero(RING).total_degree() == -1


def test_exact_divide():
    assert exact_divide(X ** 2 - Y ** 2, X - Y) == X + Y
    assert exact_divide(X ** 2 + Y, X) is None
    assert exact_divide(Poly.zero(RING), X) == Poly.zero(RING)
    rng = random.Random(204)
    for _ in range(60):
        p = rand_poly(rng, RING, 3)
        d = rand_poly(rng, RING, 2)
        if not d:
            continue
        assert exact_divide(p * d, d) == p
    # products in three variables, and non-multiples: a product plus a
    # remainder of lower degree than d cannot be a multiple of d
    ring3 = ("x", "y", "z")
    rng = random.Random(205)
    for _ in range(60):
        p = rand_poly(rng, ring3, 3, terms=5, imag=True)
        d = rand_poly(rng, ring3, 2, terms=3, imag=True)
        if d.total_degree() < 1:
            continue
        assert exact_divide(p * d, d) == p
        r = rand_poly(rng, ring3, d.total_degree() - 1, terms=2, imag=True)
        if r:
            assert exact_divide(p * d + r, d) is None


def test_render_frozen():
    assert render(X ** 2 - X * Y * 2 + 1) == "x^2 - 2*x*y + 1"
    assert render(-X) == "-x"
    assert render(Y * I) == "i*y"
    assert render(Poly.zero(RING)) == "0"
    assert render(X * (GaussRat.coerce(1) / 2)) == "1/2*x"
    half_plus_3i = GaussRat(1, 0) / 2 + I * 3
    assert render(Poly.constant(RING, half_plus_3i) * X) == "(1/2+3*i)*x"
    cases = [
        (-I, "-i"),
        (GaussRat(0, Fraction(-2, 3)), "-2/3*i"),
        (GaussRat(1, -1), "(1-i)"),
        (GaussRat(Fraction(-1, 2), 3), "(-1/2+3*i)"),
    ]
    for c, text in cases:
        assert repr(c) == text
        assert render(Poly.constant(RING, c)) == text
        assert render(Poly.constant(RING, c) * X) == f"{text}*x"


def test_render_respects_order():
    p = X ** 2 + X * Y ** 2
    assert render(p, GREVLEX) == "x*y^2 + x^2"
    assert render(p, LEX) == "x^2 + x*y^2"


# -- validation and the term-map invariant ------------------------------------


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0), (0, -2), ()])
def test_constructor_refuses_exponent_vectors_that_do_not_fit(exps):
    with pytest.raises(ValueError):
        Poly(RING, {exps: 1})


def test_short_exponent_vector_no_longer_truncates_a_product():
    # Poly(RING, {(1,): 1}) used to be accepted and then x * y rendered "x",
    # because zip stopped at the shorter vector
    with pytest.raises(ValueError):
        Poly(RING, {(1,): 1}) * Y
    assert render(Poly(RING, {(1, 0): 1}) * Y) == "x*y"


def _assert_canonical(p: Poly) -> None:
    n = len(p.ring)
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == n
        assert all(type(x) is int and x >= 0 for x in e)
        assert isinstance(c, GaussRat) and c
    assert Poly(p.ring, p.terms) == p


def test_random_operation_chains_keep_the_invariant():
    rng = random.Random(206)
    ring3 = ("x", "y", "z")
    for _ in range(40):
        pool = [rand_poly(rng, ring3, 3, terms=5, imag=True) for _ in range(3)]
        for _ in range(12):
            p, q = rng.choice(pool), rng.choice(pool)
            v = rng.choice(ring3)
            op = rng.randrange(11)
            if op == 0:
                r = p + q
            elif op == 1:
                r = p - q
            elif op == 2:
                r = p * q
            elif op == 3:
                r = -p
            elif op == 4:
                r = p * rng.choice([GaussRat(Fraction(-3, 7), 2), Fraction(5, 3), -2, 0])
            elif op == 5:
                r = p.partial(v)
            elif op == 6:
                r = p.substitute(v, rand_poly(rng, tuple(w for w in ring3 if w != v), 1, terms=2)).embed(ring3)
            elif op == 7:
                r = Poly.from_strata(ring3, v, p.strata(v))
                assert r == p
            elif op == 8:
                r = p.embed(("w",) + ring3).embed(ring3)
                assert r == p
            elif op == 9:
                r = exact_divide(p * q, q) if q else p
                assert r == p
            else:
                r = p ** rng.randint(0, 2)
            _assert_canonical(r)
            pool.append(r)
        for p in pool:
            for q in pool:
                assert (p == q) == (p - q).is_zero()
        assert pool[0] * pool[1] == pool[1] * pool[0]
        assert (pool[0] + pool[1]) - pool[1] == pool[0]
