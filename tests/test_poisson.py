"""Poisson structures: triples, z-brackets, and bracket-closed ideals."""

from __future__ import annotations

import random

import pytest

from conftest import rand_derivation, rand_poly
from oracles import bracket_by_biderivation
from poissonore import (
    DeltaBracket,
    IdealPres,
    NotPoissonError,
    Poly,
    TRIPLE_RING,
    PoissonTriple,
    commutator_ideal,
    curl,
    decompose_fg0,
    derivation,
    exact_triple,
    hamiltonian,
    is_poisson_ideal,
    is_poisson_triple,
    is_residually_null,
    jacobi_sum,
    parse_poly,
    render,
)

BASE = ("x", "y")
X = Poly.var(TRIPLE_RING, "x")
Y = Poly.var(TRIPLE_RING, "y")
Z = Poly.var(TRIPLE_RING, "z")


def _gwj():
    return derivation(BASE, x=parse_poly("2*y", BASE), y=parse_poly("y^2 + x", BASE))


def test_triple_bracket_is_determined_by_components():
    t = PoissonTriple(X, Y, Z)
    assert t.bracket(Y, Z) == X
    assert t.bracket(Z, X) == Y
    assert t.bracket(X, Y) == Z


def test_jacobi_residual_frozen():
    check = is_poisson_triple(PoissonTriple(Y, Z, X))
    assert not check
    assert render(check.residue) == "-x - y - z"


def test_residual_is_curl_pairing():
    rng = random.Random(701)
    for _ in range(40):
        t = PoissonTriple(
            rand_poly(rng, TRIPLE_RING, 2),
            rand_poly(rng, TRIPLE_RING, 2),
            rand_poly(rng, TRIPLE_RING, 2),
        )
        c = curl(t)
        pairing = sum(
            (a * b for a, b in zip(t.components(), c)), Poly.zero(TRIPLE_RING)
        )
        assert is_poisson_triple(t).residue == pairing
        # residual is -1 times the Jacobi sum on the coordinates
        assert pairing == -jacobi_sum(t, X, Y, Z)


def test_exact_triples_are_poisson():
    rng = random.Random(702)
    for _ in range(30):
        a = rand_poly(rng, TRIPLE_RING, 3)
        b = rand_poly(rng, TRIPLE_RING, 2)
        if not b:
            continue
        assert is_poisson_triple(exact_triple(a, b))


def test_delta_bracket_closed_form_matches_biderivation():
    rng = random.Random(703)
    for delta in (_gwj(), derivation(("x",), x=Poly.one(("x",)))):
        structure = DeltaBracket(delta)
        for _ in range(60):
            p = rand_poly(rng, structure.bracket_ring, 3)
            q = rand_poly(rng, structure.bracket_ring, 3)
            assert structure.bracket(p, q) == bracket_by_biderivation(delta, p, q)


def test_delta_bracket_axioms_random():
    rng = random.Random(704)
    for _ in range(12):
        delta = rand_derivation(rng, BASE)
        structure = DeltaBracket(delta)
        ring = structure.bracket_ring
        p, q, r = (rand_poly(rng, ring, 2, terms=3) for _ in range(3))
        assert structure.bracket(p, q) == -structure.bracket(q, p)
        assert structure.bracket(p, q * r) == structure.bracket(p, q) * r + q * structure.bracket(p, r)
        assert jacobi_sum(structure, p, q, r).is_zero()


def test_delta_bracket_rejects_z_in_base():
    with pytest.raises(NotPoissonError):
        DeltaBracket(derivation(("x", "z"), x=Poly.one(("x", "z"))))


def test_as_triple():
    t = DeltaBracket(_gwj()).as_triple()
    assert render(t.f) == "-y^2 - x"
    assert render(t.g) == "2*y"
    assert t.h.is_zero()
    assert is_poisson_triple(t)
    # one-variable bases fill the missing component with zero
    weyl = DeltaBracket(derivation(("x",), x=Poly.one(("x",)))).as_triple()
    assert weyl.f.is_zero()
    assert render(weyl.g) == "1"


def test_hamiltonian():
    structure = DeltaBracket(_gwj())
    d = hamiltonian(structure, Poly.var(structure.ring, "z"))
    assert d.image("x") == parse_poly("2*y", structure.ring)
    assert d.image("y") == parse_poly("y^2 + x", structure.ring)
    assert d.image("z").is_zero()
    # hamiltonians of casimirs vanish: x^2 + y^2 for the rotation triple
    rot = exact_triple(parse_poly("x^2 + y^2", TRIPLE_RING))
    dcas = hamiltonian(rot, parse_poly("x^2 + y^2", TRIPLE_RING))
    assert all(dcas.image(v).is_zero() for v in TRIPLE_RING)


def test_decompose_fg0():
    dec = decompose_fg0(X * Z, Y * Z)
    assert (render(dec.common), render(dec.f_cofactor), render(dec.g_cofactor)) == ("z", "x", "y")
    assert decompose_fg0(X, Z) is None
    # g = 0 conventions
    dec = decompose_fg0(X, Poly.zero(TRIPLE_RING))
    assert dec.common == Poly.one(TRIPLE_RING)
    dec = decompose_fg0(X * Z, Poly.zero(TRIPLE_RING))
    assert dec.common == X * Z


def test_is_poisson_ideal():
    structure = DeltaBracket(_gwj())
    ring = structure.ring
    good = IdealPres(ring, [parse_poly("y^2 + x + 1", ring)])
    assert is_poisson_ideal(structure, good)
    bad = IdealPres(ring, [parse_poly("x", ring)])
    assert not is_poisson_ideal(structure, bad)


def test_is_residually_null():
    structure = DeltaBracket(_gwj())
    ring = structure.ring
    point = IdealPres(ring, [parse_poly("x", ring), parse_poly("y", ring)])
    assert is_residually_null(structure, point)
    curve = IdealPres(ring, [parse_poly("y^2 + x + 1", ring)])
    assert not is_residually_null(structure, curve)
    # non-Poisson ideals are rejected before the residual test
    with pytest.raises(NotPoissonError):
        is_residually_null(structure, IdealPres(ring, [parse_poly("x", ring)]))


def test_commutator_ideal_frozen():
    structure = DeltaBracket(_gwj())
    j = commutator_ideal(structure)
    assert tuple(j.basis_strings()) == ("x", "y")
    # every residually-null prime contains it
    ring = structure.ring
    point = IdealPres(ring, [parse_poly("x", ring), parse_poly("y", ring)])
    assert point.contains_ideal(j)
