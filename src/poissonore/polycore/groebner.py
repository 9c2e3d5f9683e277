"""Buchberger's algorithm, normal forms, and ideal presentations.

Reduced Groebner bases are the workhorse for every ideal question in
this package: membership, equality, containment, elimination.  Every
reduction is the division algorithm `poly._divide` (Cox, Little, O'Shea,
Ideals, Varieties, and Algorithms, Thm. 2.3.3).  Membership does not
depend on the order, so it uses the grevlex basis.  The implementation
is the plain Buchberger loop with the normal selection strategy and the
coprimality criterion.  Its monic output is cut to a minimal basis, one
element per minimal leading monomial, and each kept element is reduced
once by the other kept elements with smaller leading monomials, the only
ones that can divide its terms.  Reduction leaves every leading monomial
in place, so this is the reduced basis, which is unique (ibid., Prop.
2.7.6); it is returned sorted by descending leading monomial, so
identical ideals give identical bases on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    MonomialOrder,
    Poly,
    _divide,
    _sub_multiple,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    render,
)


def reduce_full(p: Poly, basis: Sequence[Poly], order: MonomialOrder = GREVLEX) -> Poly:
    """Remainder of p after full reduction by basis (every term reduced)."""
    return _divide(p, basis, order)[1]


def _s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    lf, cf = f.leading_term(order)
    lg, cg = g.leading_term(order)
    l = mono_lcm(lf, lg)
    out = {}
    _sub_multiple(out, -cf.inverse(), mono_div(l, lf), f)
    _sub_multiple(out, cg.inverse(), mono_div(l, lg), g)
    return Poly(f.ring, out)


def buchberger(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list[Poly]:
    basis = [g.monic(order) for g in gens if g]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    lms = [g.leading_monomial(order) for g in basis]
    while pairs:
        # normal selection: smallest lcm first, index pair breaking ties
        i, j = min(
            pairs,
            key=lambda ij: (order.key(mono_lcm(lms[ij[0]], lms[ij[1]])), ij),
        )
        pairs.discard((i, j))
        li, lj = lms[i], lms[j]
        if mono_lcm(li, lj) == mono_mul(li, lj):  # coprime leading monomials
            continue
        s = reduce_full(_s_poly(basis[i], basis[j], order), basis, order)
        if s:
            s = s.monic(order)
            basis.append(s)
            lms.append(s.leading_monomial(order))
            k = len(basis) - 1
            pairs.update((k, t) for t in range(k))
    return basis


def groebner_basis(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list[Poly]:
    """The reduced Groebner basis of the ideal generated by gens.

    The scan runs by ascending leading monomial, so a divisor of a
    leading monomial is kept before it is met, and only the elements
    kept before g, already reduced, have leading monomials that can
    divide a term of g.
    """
    by_lm = sorted(buchberger(gens, order), key=lambda g: order.key(g.leading_monomial(order)))
    reduced: list[Poly] = []
    for g in by_lm:
        lm = g.leading_monomial(order)
        if not any(mono_divides(h.leading_monomial(order), lm) for h in reduced):
            reduced.append(reduce_full(g, reduced, order))
    return reduced[::-1]


@dataclass(frozen=True)
class Check:
    """Outcome of a finite criterion: truthy iff ok.

    On failure, witness names what failed (a generator, a pair, a
    triple) and residue is its nonzero normal form; the Jacobi test
    keeps its residual here on success too.
    """

    ok: bool
    witness: object = None
    residue: Poly | None = None

    def __bool__(self) -> bool:
        return self.ok


class IdealPres:
    """An ideal of a polynomial ring, given by generators.

    Reduced bases are computed on demand and cached per order tag; the
    cache is an internal memo only, instances behave as immutable.
    """

    __slots__ = ("ring", "generators", "_bases")

    def __init__(self, ring: tuple[str, ...], generators: Iterable[Poly]):
        gens = []
        for g in generators:
            if g.ring != ring:
                g = g.embed(ring)
            if g:
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_bases", {})

    def __setattr__(self, name, value):
        raise AttributeError("IdealPres is immutable")

    def basis(self, order: MonomialOrder = GREVLEX) -> list[Poly]:
        cached = self._bases.get(order.tag)
        if cached is None:
            cached = groebner_basis(self.generators, order)
            for g in self.generators:  # the cache must present the same ideal
                if reduce_full(g, cached, order):
                    raise ArithmeticError("basis does not reduce its own generators")
            self._bases[order.tag] = cached
        return cached

    def normal_form(self, p: Poly) -> Poly:
        return reduce_full(p.embed(self.ring), self.basis())

    def contains_poly(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def contains_all(self, pairs: Iterable[tuple[object, Poly]]) -> Check:
        """Whether every polynomial of the (witness, polynomial) pairs is a member.

        The pairs are consumed lazily and the scan stops at the first
        nonzero grevlex normal form, which the failed Check carries.
        """
        for witness, p in pairs:
            residue = self.normal_form(p)
            if residue:
                return Check(False, witness, residue)
        return Check(True)

    def contains_ideal(self, other: "IdealPres") -> bool:
        return all(self.contains_poly(g) for g in other.generators)

    def same_ideal(self, other: "IdealPres") -> bool:
        return self.basis() == other.basis()

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        b = self.basis()
        return len(b) == 1 and b[0].is_constant()

    def basis_strings(self, order: MonomialOrder = GREVLEX) -> tuple[str, ...]:
        return tuple(render(g, order) for g in self.basis(order))

    def __eq__(self, other):
        if not isinstance(other, IdealPres):
            return NotImplemented
        return self.ring == other.ring and self.same_ideal(other)

    def __hash__(self):
        return hash((self.ring, tuple(self.basis())))

    def __repr__(self):
        gens = ", ".join(render(g) for g in self.generators) or "0"
        return f"<ideal ({gens})>"


def normal_form(p: Poly, ideal: IdealPres) -> Poly:
    """Unique grevlex remainder of p modulo the ideal; zero exactly on members."""
    return ideal.normal_form(p)
