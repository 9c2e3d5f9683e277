"""Stable-curve search, cores, simplicity, factorization, classification."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import rand_derivation, rand_nonzero_poly, rand_poly
from oracles import factors_by_sympy, in_image_by_linear_algebra, stable_curves_by_sympy
from poissonore import (
    Derivation,
    GaussRat,
    IdealPres,
    Poly,
    SolutionFamily,
    darboux_search,
    classify_delta_spectrum,
    classify_exact_spectrum,
    delta_core,
    derivation,
    factorizations,
    gamma_map,
    image_solvable,
    invariance_equations,
    irreducible_factors,
    is_irreducible,
    load_registry,
    parse_poly,
    render,
    shamsuddin_simple,
    singular_locus,
    spectrum_inclusions,
    verify_cofactor,
)
from poissonore import spectra
from poissonore.polycore import GREVLEX
from poissonore.spectra import monomials_of_degree, monomials_upto

BASE = ("x", "y")


def _delta(**imgs):
    return derivation(BASE, **{v: parse_poly(s, BASE) for v, s in imgs.items()})


def _gwj():
    return _delta(x="2*y", y="y^2 + x")


def test_verify_cofactor():
    d = _gwj()
    assert render(verify_cofactor(d, parse_poly("y^2 + x + 1", BASE))) == "2*y"
    assert verify_cofactor(d, parse_poly("x", BASE)) is None
    with pytest.raises(ValueError):
        verify_cofactor(d, Poly.zero(BASE))


def test_monomial_enumeration_matches_brute_force():
    for n in range(4):
        for d in range(6):
            box = itertools.product(range(d + 1), repeat=n)
            upto = sorted((e for e in box if sum(e) <= d), key=GREVLEX.key, reverse=True)
            assert monomials_upto(n, d) == upto
            assert monomials_of_degree(n, d) == [e for e in upto if sum(e) == d]


def test_invariance_equations_frozen_weyl():
    ring = ("x",)
    d = derivation(ring, x=Poly.one(ring))
    x = Poly.var(ring, "x")
    one = Poly.one(ring)
    system = invariance_equations(d, [x, one], [one], lead=x)
    # q = x + u0, w = w0; the x coefficient of d(q) - w q is -w0
    equations = dict(system.equations)
    assert render(equations[(1,)]) == "-w0"
    assert render(equations[(0,)]) == "-u0*w0 + 1"
    assert system.solve() == []


def test_invariance_equations_pin_gwj():
    d = _gwj()
    x = Poly.var(BASE, "x")
    y = Poly.var(BASE, "y")
    one = Poly.one(BASE)
    system = invariance_equations(d, [x, y, one], [x, y, one], lead=y * y)
    sols = system.solve()
    assert len(sols) == 1
    q, w = system.instantiate(sols[0])
    assert render(q) == "y^2 + x + 1"
    assert render(w) == "2*y"


def test_invariance_equations_family_without_lead():
    d = _gwj()
    x = Poly.var(BASE, "x")
    y = Poly.var(BASE, "y")
    one = Poly.one(BASE)
    system = invariance_equations(d, [y * y, x, y, one], [x, y, one])
    with pytest.raises(SolutionFamily):
        system.solve()


def test_darboux_search_frozen_values():
    found = darboux_search(_gwj(), 2)
    assert [(render(c.q), render(c.cofactor)) for c in found] == [("y^2 + x + 1", "2*y")]
    found = darboux_search(_delta(x="x", y="1"), 2)
    assert sorted(render(c.q) for c in found) == ["x", "x^2"]
    assert darboux_search(_delta(x="y", y="x + x^2*y"), 3) == []
    assert darboux_search(derivation(("x",), x=Poly.one(("x",))), 4) == []


def test_darboux_search_checks_without_division(monkeypatch):
    expected = darboux_search(_gwj(), 2)

    def refuse(p, d):
        raise AssertionError("darboux_search divided")

    monkeypatch.setattr(spectra, "exact_divide", refuse)
    assert darboux_search(_gwj(), 2) == expected


def test_darboux_search_matches_sympy_oracle():
    for delta in (_gwj(), _delta(x="x", y="1"), _delta(x="1", y="1 + x*y")):
        expected, family = stable_curves_by_sympy(delta, 2)
        assert not family
        found = {render(c.q) for c in darboux_search(delta, 2)}
        assert found == expected


def test_darboux_search_on_inputs_that_used_to_hang():
    # strata whose equations are inconsistent or zero-dimensional but
    # hard in lex: a lex basis computed directly took minutes here
    registry = load_registry()
    for name, dmax in (("coutinho-1", 2), ("coutinho-2", 2), ("coutinho-2", 3)):
        delta = registry[name].derivation()
        expected, family = stable_curves_by_sympy(delta, dmax)
        assert not family
        found = {render(c.q) for c in darboux_search(delta, dmax)}
        assert found == expected, (name, dmax)


def test_darboux_search_raises_on_families():
    # the rotation derivation keeps every circle x^2 + y^2 - c stable
    with pytest.raises(SolutionFamily):
        darboux_search(_delta(x="2*y", y="-2*x"), 2)


@pytest.mark.parametrize(
    "images, dmax, message",
    [
        # delta = y*d/dx kills every y + c
        ({"x": "y", "y": "0"}, 1, "darboux stratum with leading monomial y: variables ('u0',) are unconstrained"),
        # delta(x^2 + c*y) = 2*(x^2 + c*y) for every c
        ({"x": "x", "y": "2*y"}, 2, "darboux stratum with leading monomial x^2: variables ('u3',) are unconstrained"),
    ],
)
def test_darboux_search_family_names_the_remaining_unknowns(images, dmax, message):
    # the solver eliminates the other unknowns first; the message names the ones left free
    with pytest.raises(SolutionFamily) as exc:
        darboux_search(_delta(**images), dmax)
    assert str(exc.value) == message


def test_singular_locus():
    locus = singular_locus(_gwj())
    assert locus.resolved
    assert [dict(p) for p in locus.points] == [{"x": GaussRat(), "y": GaussRat()}]
    # unit obstruction: no common zero at all
    locus = singular_locus(_delta(x="y^3", y="1 - x*y"))
    assert locus.resolved and locus.points == ()
    # positive-dimensional locus is reported, not solved
    locus = singular_locus(_delta(x="x*y", y="0"))
    assert not locus.resolved


def test_delta_core_frozen():
    d = _gwj()
    core = delta_core(IdealPres(BASE, [parse_poly("y^2 + x + 1", BASE)]), d)
    assert core.exact and core.iterations == 1
    assert tuple(core.core.basis_strings()) == ("y^2 + x + 1",)
    # d/dx walks (x) -> (x^2) -> ... and never stabilizes
    ring = ("x",)
    weyl = derivation(ring, x=Poly.one(ring))
    chain = delta_core(IdealPres(ring, [Poly.var(ring, "x")]), weyl, max_iter=4)
    assert not chain.exact
    assert tuple(chain.core.basis_strings()) == ("x^5",)


def test_delta_core_step_agrees_with_membership():
    rng = random.Random(901)
    from poissonore.spectra import _stable_step

    for _ in range(6):
        gens = [rand_poly(rng, BASE, 2, terms=3) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        d = rand_derivation(rng, BASE, deg=2)
        ideal = IdealPres(BASE, gens)
        step = _stable_step(ideal, d)
        # membership route: a is in the step iff a and d(a) are both members
        for _ in range(8):
            p = rand_poly(rng, BASE, 2, terms=2) * gens[0]
            expected = ideal.contains_poly(p) and ideal.contains_poly(d.apply(p))
            assert step.contains_poly(p) == expected
        probe = rand_poly(rng, BASE, 3, terms=3)
        expected = ideal.contains_poly(probe) and ideal.contains_poly(d.apply(probe))
        assert step.contains_poly(probe) == expected


def test_shamsuddin_frozen_cases():
    ring = ("x",)
    x = Poly.var(ring, "x")
    one = Poly.one(ring)
    zero = Poly.zero(ring)
    for lam in (1, -1, 3):
        verdict = shamsuddin_simple(x * lam, one)
        assert verdict.simple, verdict.reason
    verdict = shamsuddin_simple(x, zero)
    assert not verdict.simple and verdict.witness == zero
    verdict = shamsuddin_simple(zero, x)
    assert not verdict.simple and render(verdict.witness) == "1/2*x^2"
    # nonconstant c: the ideal (c) is already stable downstairs
    verdict = shamsuddin_simple(x, one, c=x)
    assert not verdict.simple and verdict.witness is None
    # constant c is rescaled away
    verdict = shamsuddin_simple(x, zero, c=one * 2)
    assert not verdict.simple and verdict.witness == zero


def test_shamsuddin_witnesses_check_out():
    # a witness r must satisfy c r' = a r + b
    ring = ("x",)
    x = Poly.var(ring, "x")
    verdict = shamsuddin_simple(Poly.zero(ring), x)
    r = verdict.witness
    assert r.partial("x") == x


def test_shamsuddin_planted_witnesses():
    # with b = c*r' - a*r the equation c*r' = a*r + b has a polynomial solution
    rng = random.Random(1402)
    ring = ("x",)
    for k in range(40):
        a = rand_poly(rng, ring, rng.randint(0, 3), terms=2, imag=True)
        c = rand_nonzero_poly(rng, ring, rng.randint(0, 2), terms=2) if k % 3 else None
        r = rand_poly(rng, ring, rng.randint(0, 4), terms=3, imag=True)
        cc = Poly.one(ring) if c is None else c
        b = cc * r.partial("x") - a * r
        verdict = shamsuddin_simple(a, b, c)
        assert not verdict.simple and verdict.witness is not None, (a, b, c)
        w = verdict.witness
        assert cc * w.partial("x") == a * w + b


def test_factorizations():
    x = Poly.var(BASE, "x")
    y = Poly.var(BASE, "y")
    circle = x * x + y * y
    pairs = factorizations(circle)
    assert pairs
    for u, v in pairs:
        assert u * v == circle
    rendered = {frozenset((render(u), render(v))) for u, v in pairs}
    assert rendered == {frozenset(("x + i*y", "x - i*y"))}
    assert factorizations(circle - Poly.one(BASE)) == []
    assert [(render(u), render(v)) for u, v in factorizations((x + 1) ** 2)] == [
        ("x + 1", "x + 1")
    ]


def test_factorizations_over_a_ring_that_uses_an_unknown_name():
    ring = ("x", "v0")
    q = parse_poly("x*v0 + x", ring)
    assert [(render(a), render(b)) for a, b in factorizations(q)] == [("v0 + 1", "x")]


def test_exact_classification_refuses_a_ring_with_lambda():
    with pytest.raises(ValueError, match="lambda"):
        classify_exact_spectrum(parse_poly("x^2 + lambda^2", ("x", "lambda")))


def test_is_irreducible():
    x = Poly.var(BASE, "x")
    y = Poly.var(BASE, "y")
    assert is_irreducible(x * x + y * y - 1)
    assert not is_irreducible(x * x + y * y)
    assert not is_irreducible(x * x - y * y)
    assert is_irreducible(x + y * 5)


def test_irreducible_factors():
    x = Poly.var(BASE, "x")
    y = Poly.var(BASE, "y")
    content, factors = irreducible_factors((x * x + y * y) * 2)
    assert content == GaussRat(2)
    assert sorted(render(f) for f in factors) == ["x + i*y", "x - i*y"]
    prod = Poly.constant(BASE, content)
    for f in factors:
        prod = prod * f
    assert prod == (x * x + y * y) * 2


def test_irreducible_factors_match_sympy():
    rng = random.Random(1403)
    for _ in range(30):
        q = rand_nonzero_poly(rng, BASE, rng.randint(1, 2), terms=3, imag=True)
        for _ in range(rng.randint(0, 2)):
            f = rand_nonzero_poly(rng, BASE, rng.randint(1, 2), terms=3, imag=True)
            if (q * f).total_degree() <= 4:
                q = q * f
        if q.total_degree() < 1:
            continue
        content, factors = irreducible_factors(q)
        assert (content, sorted(factors, key=render)) == factors_by_sympy(q), q


def test_image_solvable():
    ring = ("x",)
    weyl = derivation(ring, x=Poly.one(ring))
    p = image_solvable(weyl, Poly.one(ring), 3)
    assert p is not None and weyl.apply(p) == Poly.one(ring)
    d = _gwj()
    target = parse_poly("y", BASE)
    p = image_solvable(d, target, 2)
    assert p is not None and d.apply(p) == target
    # no preimage of 1 under the unitless-image derivation
    ox = _delta(x="y^3", y="1 - x*y")
    assert image_solvable(ox, Poly.one(BASE), 3) is None
    # deterministic output
    assert image_solvable(d, target, 2) == image_solvable(d, target, 2)


def test_image_solvable_matches_linear_algebra():
    rng = random.Random(1401)
    for k in range(60):
        dmax = k % 4
        d = rand_derivation(rng, BASE, deg=rng.randint(0, 2))
        if k % 2:
            target = d.apply(rand_poly(rng, BASE, dmax, terms=3))
        else:
            target = rand_poly(rng, BASE, 3, terms=3)
        p = image_solvable(d, target, dmax)
        assert (p is not None) == in_image_by_linear_algebra(d, target, dmax), (d, target)
        if p is not None:
            assert p.total_degree() <= dmax and d.apply(p) == target
    # no equations at all: the zero derivation and target 0 give p = 0
    zero = derivation(BASE, x=Poly.zero(BASE), y=Poly.zero(BASE))
    assert image_solvable(zero, Poly.zero(BASE), 2) == Poly.zero(BASE)
    assert image_solvable(zero, Poly.one(BASE), 2) is None


def test_classify_delta_spectrum_gwj():
    desc = classify_delta_spectrum(_gwj(), 2)
    assert desc.side == "ore"
    kinds = [e.kind for e in desc.entries]
    assert kinds == ["zero", "principal", "point", "point-fiber"]
    gens = [e.generator_strings() for e in desc.entries]
    assert gens == [(), ("y^2 + x + 1",), ("x", "y"), ("x", "y", "z - alpha")]
    assert desc.completeness == "height-one entries complete through degree 2"
    with pytest.raises(ValueError):
        classify_delta_spectrum(derivation(BASE, x=Poly.zero(BASE), y=Poly.zero(BASE)), 2)


def test_classify_delta_spectrum_reducible_curves_dropped():
    desc = classify_delta_spectrum(_delta(x="x", y="1"), 2)
    principal = [e for e in desc.entries if e.kind == "principal"]
    assert [e.generator_strings() for e in principal] == [("x",)]


def test_classify_exact_spectrum_circle():
    a = parse_poly("x^2 + y^2", BASE)
    desc = classify_exact_spectrum(a)
    assert desc.side == "poisson"
    by_kind: dict[str, list] = {}
    for e in desc.entries:
        by_kind.setdefault(e.kind, []).append(e.generator_strings())
    assert by_kind["zero"] == [()]
    assert by_kind["principal-family"] == [("x^2 + y^2 - lambda",)]
    assert sorted(by_kind["principal"]) == [
        ("x + i*y",),
        ("x - i*y",),
        ("x^2 + y^2 + 2",),
        ("x^2 + y^2 - 1",),
    ]
    assert by_kind["point"] == [("x", "y")]
    assert by_kind["point-fiber"] == [("x", "y", "z - alpha")]
    with pytest.raises(ValueError):
        classify_exact_spectrum(Poly.one(BASE))


def test_gamma_map_round_trip_sides():
    d = _gwj()
    desc = classify_delta_spectrum(d, 2)
    moved = gamma_map(desc, d)
    assert moved.side == "poisson"
    assert [e.generator_strings() for e in moved.entries] == [
        e.generator_strings() for e in desc.entries
    ]
    assert all(("transport-check", "bracket-closure") in e.certificates for e in moved.entries)
    back = gamma_map(moved, d)
    assert back.side == "ore"


def test_gamma_map_rejects_unstable_entries():
    from poissonore.spectra import SpectrumEntry, SpectrumDescription

    d = _gwj()
    for side, verified in (("ore", "bracket-closure"), ("poisson", "twist-stability")):
        bogus = SpectrumDescription(
            side,
            "test",
            (SpectrumEntry("principal", BASE, (Poly.var(BASE, "x"),)),),
        )
        # both directions name the failing generator x and its residue 2*y
        with pytest.raises(ArithmeticError, match=rf"fails {verified}: .*x.* residue 2\*y"):
            gamma_map(bogus, d)


def test_spectrum_inclusions_gwj():
    d = _gwj()
    desc = classify_delta_spectrum(d, 2)
    pairs = spectrum_inclusions(desc, BASE)
    # zero sits inside everything; the point sits inside every fiber point
    assert set(pairs) == {(0, 1), (0, 2), (0, 3), (2, 3)}
