"""Acceptance gate: one test per shipped criterion, timed, zero tolerance.

Every check is exact; the printed PASS/FAIL line per criterion shows up
even under capture (pytest tests/test_acceptance.py -v).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import rand_poly
from oracles import bracket_by_biderivation, membership_by_linear_algebra, stable_curves_by_sympy
from poissonore import (
    DeltaBracket,
    Derivation,
    GaussRat,
    IdealPres,
    Poly,
    SkewPoly,
    SolutionFamily,
    classify_delta_spectrum,
    classify_exact_spectrum,
    darboux_search,
    derivation,
    gamma_map,
    image_solvable,
    is_poisson_triple,
    jacobi_sum,
    load_registry,
    parse_poly,
    quantize,
    render,
    semiclassical_bracket,
    shamsuddin_simple,
    singular_locus,
    spectrum_inclusions,
    verify_cofactor,
)
from poissonore.registry import EXPECTED_RING
from poissonore.spectra import DEFAULT_SAMPLES

BASE = ("x", "y")
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(capsys, n, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL ({elapsed:.2f}s, limit {limit}s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {status} ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"criterion {n} exceeded {limit}s wall time"


def _delta(**imgs):
    return derivation(BASE, **{v: parse_poly(s, BASE) for v, s in imgs.items()})


def _gwj():
    return _delta(x="2*y", y="y^2 + x")


def _ox():
    return _delta(x="y^3", y="1 - x*y")


def _weyl():
    return derivation(("x",), x=Poly.one(("x",)))


def _rotation():
    return _delta(x="2*y", y="-2*x")


def test_criterion_1_bracket_axioms(capsys):
    structures = {
        "weyl": DeltaBracket(_weyl()),
        "bergman": DeltaBracket(_delta(x="1", y="1 + x*y")),
        "bergman-m1": DeltaBracket(_delta(x="1", y="1 - x*y")),
        "bergman-2": DeltaBracket(_delta(x="1", y="1 + 2*x*y")),
        "ox": DeltaBracket(_ox()),
        "log": DeltaBracket(_delta(x="x", y="1")),
        "coutinho-1": DeltaBracket(_delta(x="x*y + 2", y="-x^2 - x*y - 2")),
        "coutinho-2": DeltaBracket(_delta(x="1", y="x^2 + x*y + y^2")),
        "coutinho-3": DeltaBracket(_delta(x="x*y + 1", y="x")),
        "exact-circle": DeltaBracket(_delta(x="2*y", y="-2*x")),
    }
    with criterion(capsys, 1, 30):
        rng = random.Random(11)
        for structure in structures.values():
            ring = structure.ring
            for _ in range(100):
                p = rand_poly(rng, ring, 3, terms=3)
                q = rand_poly(rng, ring, 3, terms=3)
                r = rand_poly(rng, ring, 3, terms=3)
                assert structure.bracket(p, q) == -structure.bracket(q, p)
                assert (
                    structure.bracket(p, q * r)
                    == structure.bracket(p, q) * r + q * structure.bracket(p, r)
                )
                assert jacobi_sum(structure, p, q, r).is_zero()
        for cfg in load_registry().values():
            s = cfg.structure()
            triple = s.as_triple() if isinstance(s, DeltaBracket) else s
            assert is_poisson_triple(triple), cfg.name


def test_criterion_2_closed_form_vs_expansion(capsys):
    deltas = [_weyl(), _gwj(), _ox()]
    with criterion(capsys, 2, 5):
        rng = random.Random(22)
        for k in range(200):
            delta = deltas[k % len(deltas)]
            structure = DeltaBracket(delta)
            ring = structure.ring
            z = Poly.var(ring, "z")
            a = rand_poly(rng, delta.ring, 2, terms=3).embed(ring)
            b = rand_poly(rng, delta.ring, 2, terms=3).embed(ring)
            m = rng.randint(0, 3)
            n = rng.randint(0, 3)
            p = a * z ** m
            q = b * z ** n
            assert structure.bracket(p, q) == bracket_by_biderivation(delta, p, q)


def test_criterion_3_semiclassical_limit(capsys):
    with criterion(capsys, 3, 60):
        rng = random.Random(33)
        for delta in (_weyl(), _gwj(), _ox()):
            twist = quantize(delta)
            structure = DeltaBracket(delta)
            ring = twist.ring
            z = SkewPoly.z(twist)
            for _ in range(200):
                coeffs = [
                    rand_poly(rng, delta.ring, 2, terms=2).embed(ring) for _ in range(4)
                ]
                more = [
                    rand_poly(rng, delta.ring, 2, terms=2).embed(ring) for _ in range(4)
                ]
                u = sum(
                    (SkewPoly.from_base(twist, c) * z ** k for k, c in enumerate(coeffs)),
                    SkewPoly.from_base(twist, Poly.zero(ring)),
                )
                v = sum(
                    (SkewPoly.from_base(twist, c) * z ** k for k, c in enumerate(more)),
                    SkewPoly.from_base(twist, Poly.zero(ring)),
                )
                # raises if any commutator coefficient fails exact h-division
                sc = semiclassical_bracket(u, v)
                ubar = u.to_poly().substitute("h", 0)
                vbar = v.to_poly().substitute("h", 0)
                assert sc == structure.bracket(ubar, vbar)


def _entry_sets(desc):
    out = set()
    for e in desc.entries:
        gens = [g.embed(EXPECTED_RING) for g in e.generators]
        out.add(frozenset(IdealPres(EXPECTED_RING, gens).basis_strings()))
    return out


def test_criterion_4_gwj_spectrum_and_transport(capsys):
    d = _gwj()
    with criterion(capsys, 4, 60):
        desc = classify_delta_spectrum(d, 2)
        expected = load_registry()["gwj"].expected_basis_sets()
        assert _entry_sets(desc) == expected
        # sampled fiber instances are the three concrete maximal ideals
        fiber = next(e for e in desc.entries if e.kind == "point-fiber")
        ring = fiber.ring
        seen = set()
        for gens in fiber.instances():
            seen.add(frozenset(IdealPres(ring, list(gens)).basis_strings()))
        want = set()
        for alpha in DEFAULT_SAMPLES:
            inst = [
                parse_poly("x", ring),
                parse_poly("y", ring),
                Poly.var(ring, "z") - Poly.constant(ring, alpha),
            ]
            want.add(frozenset(IdealPres(ring, inst).basis_strings()))
        assert seen == want
        # transport to the commutative side carries the same ideal list
        moved = gamma_map(desc, d)
        assert moved.side == "poisson"
        assert _entry_sets(moved) == expected
        # containment structure agrees in both directions
        pairs = spectrum_inclusions(desc, BASE)
        assert set(pairs) == {(0, 1), (0, 2), (0, 3), (2, 3)}
        assert set(spectrum_inclusions(moved, BASE)) == set(pairs)
        back = gamma_map(moved, d)
        assert _entry_sets(back) == expected


def test_criterion_5_no_stable_curves_example(capsys):
    d = _delta(x="y", y="x + x^2*y")
    with criterion(capsys, 5, 300):
        assert darboux_search(d, 3) == []
        locus = singular_locus(d)
        assert locus.resolved
        assert [dict(p) for p in locus.points] == [{"x": GaussRat(), "y": GaussRat()}]
        desc = classify_delta_spectrum(d, 3)
        assert _entry_sets(desc) == load_registry()["new"].expected_basis_sets()


def test_criterion_6_exact_circle_fibers(capsys):
    a = parse_poly("x^2 + y^2", BASE)
    with criterion(capsys, 6, 60):
        desc = classify_exact_spectrum(a)
        principal = {
            e.generator_strings()[0]: dict(e.certificates)
            for e in desc.entries
            if e.kind == "principal"
        }
        assert set(principal) == {"x + i*y", "x - i*y", "x^2 + y^2 - 1", "x^2 + y^2 + 2"}
        assert principal["x + i*y"]["fiber"] == "0"
        assert principal["x - i*y"]["fiber"] == "0"
        assert "irreducible" in principal["x^2 + y^2 - 1"]
        assert principal["x^2 + y^2 - 1"]["fiber"] == "1"
        rot = derivation(BASE, x=a.partial("y"), y=-a.partial("x"))
        assert verify_cofactor(rot, a) == Poly.zero(BASE)


def test_criterion_7_shamsuddin(capsys):
    ring = ("x",)
    x = Poly.var(ring, "x")
    one = Poly.one(ring)
    zero = Poly.zero(ring)
    with criterion(capsys, 7, 1):
        for lam in (1, -1, 3):
            assert shamsuddin_simple(x * lam, one).simple
        verdict = shamsuddin_simple(x, zero)
        assert not verdict.simple and verdict.witness == zero
        verdict = shamsuddin_simple(zero, x)
        assert not verdict.simple and render(verdict.witness) == "1/2*x^2"


def test_criterion_8_no_bounded_preimage(capsys):
    with criterion(capsys, 8, 30):
        assert image_solvable(_ox(), Poly.one(BASE), 6) is None


def test_criterion_9_search_and_membership_oracles(capsys):
    with criterion(capsys, 9, 300):
        rng = random.Random(99)
        checked = 0
        while checked < 10:
            d = Derivation(
                BASE, {v: rand_poly(rng, BASE, 2, terms=3, span=2) for v in BASE}
            )
            if d.is_zero():
                continue
            expected, family = stable_curves_by_sympy(d, 2)
            try:
                found = {render(c.q) for c in darboux_search(d, 2)}
            except SolutionFamily:
                assert family, f"search saw a family the oracle missed: {d!r}"
                checked += 1
                continue
            assert not family, f"oracle saw a family the search missed: {d!r}"
            assert found == expected, d
            checked += 1

        for _ in range(50):
            gens = [rand_poly(rng, BASE, 2, terms=3, span=2) for _ in range(rng.randint(1, 2))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            ideal = IdealPres(BASE, gens)
            maxdeg = max(g.total_degree() for g in gens)
            member = sum(
                (rand_poly(rng, BASE, 2, terms=2) * g for g in gens),
                Poly.zero(BASE),
            )
            assert ideal.contains_poly(member)
            assert membership_by_linear_algebra(gens, member, maxdeg + 2)
            probe = rand_poly(rng, BASE, 2, terms=3)
            bound = probe.total_degree() + maxdeg + 2
            by_basis = ideal.contains_poly(probe)
            by_la = membership_by_linear_algebra(gens, probe, bound)
            if by_basis and not by_la:
                by_la = membership_by_linear_algebra(gens, probe, bound + 2)
            assert by_basis == by_la, (gens, probe)


@pytest.mark.parametrize("name", ["gwj", "new", "exact-circle", "bergman"])
def test_criterion_10_golden_determinism(capsys, name):
    with criterion(capsys, 10, 60):
        golden = (GOLDEN / f"{name}.json").read_bytes()
        outputs = []
        for seed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "poissonore.cli", "example", name, "--json"],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2] == golden
        payload = json.loads(outputs[0])
        assert payload["expected_reproduced"] is True
