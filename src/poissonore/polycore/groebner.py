"""Buchberger's algorithm, normal forms, minimal polynomials, and ideal presentations.

Reduced Groebner bases are the workhorse for every ideal question in
this package: membership, equality, containment, elimination.  Every
reduction goes through the one division loop, `poly._remainder`, over
Z[i]; `reduce_full` scales its remainder back to the exact remainder over
QQ(i).  Membership does not depend on the order, so it uses the grevlex
basis.

`buchberger` keeps its pending pairs in a heap under the normal
selection strategy, drops the pairs that the Gebauer-Moller criteria
and the coprimality criterion prove redundant, and stops with [1] at the
first nonzero constant remainder.  Its elements are divisors of
`poly._remainder`, with positive integer leading coefficients (the
docstring of `buchberger` says why).  It interreduces them, still over
Z[i], and returns the reduced basis, monic over QQ(i), which is unique
(Cox, Little, O'Shea, Prop. 2.7.6), sorted by descending leading
monomial, so identical ideals give identical bases on every run.
`groebner_basis` returns it unchanged.

`minimal_polynomial` finds the first linear relation among the grevlex
normal forms of the powers of an element modulo a zero-dimensional
ideal, with `linsolve.rref`; for the last variable, that is how the
solver gets its univariate polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    Expvec,
    MonomialOrder,
    Poly,
    _Element,
    _element,
    _integral,
    _Keys,
    _rational,
    _remainder,
    _sub_scaled,
    _ZiTerms,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    render,
)
from .linsolve import rref
from .scalars import ONE, ZERO, GaussRat, _reduce as _gauss


def reduce_full(p: Poly, basis: Sequence[Poly], order: MonomialOrder = GREVLEX) -> Poly:
    """Remainder of p after full reduction by basis (every term reduced).

    `poly._remainder` on den*p, p cleared of denominators, returns s*den
    times the exact remainder over QQ(i).
    """
    key = _Keys(order).__getitem__
    divisors = [_element(_integral(g)[0], max(g.terms, key=key)) for g in basis if g]
    work, den = _integral(p)
    rem, s = _remainder(work, divisors, key)
    return Poly._raw(p.ring, _rational(rem, _gauss(1, 0, s * den)))


def buchberger(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list[Poly]:
    """The reduced Groebner basis of (gens); [1] as soon as the ideal is seen to be the unit ideal.

    Becker and Weispfenning's GROEBNERNEW2 (Groebner Bases, Sec. 5.5):
    each new element goes through the Gebauer-Moller UPDATE, which drops
    the pairs that the chain and coprime criteria prove redundant and the
    kept elements whose leading monomial it divides.  Pending pairs sit
    in a heap keyed once, at creation, by (lcm key, indices): the normal
    selection strategy.  A pair that a later UPDATE kills stays in the
    heap and is skipped when it comes up.  S-polynomials are reduced by
    the kept elements only.  At the end the kept elements are taken by
    ascending leading monomial: one whose leading monomial an earlier
    one divides is dropped, and the others are reduced by the earlier
    ones, the only ones whose leading monomials can divide their terms.
    Reduction leaves every leading monomial in place, so made monic this
    is the reduced basis.

    The run is fraction-free, over Z[i] (ibid., Sec. 5.5; von zur Gathen
    and Gerhard, Modern Computer Algebra, Ch. 6): S-polynomials and the
    reduction steps of `poly._remainder` cross-multiply by leading
    coefficients, and `poly._element` gives every new element a positive
    integer leading coefficient, so integer content is all that can build
    up; with Gaussian leading coefficients, Gaussian factors that no
    integer content removes build up instead, and the coefficients blow
    up.  Each element is a nonzero scalar multiple of the one the same run
    over QQ(i) would keep, and pairs are chosen from leading monomials
    only, so the pairs, the kept elements and the monic output are those
    of the run over QQ(i).
    """
    key = _Keys(order).__getitem__
    polys: list[_Element] = []  # every element ever added; pairs index into it
    lms: list[Expvec] = []
    kept: list[int] = []
    reducers: list[_Element] = []
    pending: dict[tuple[int, int], Expvec] = {}  # live pair -> lcm of its leading monomials
    heap: list[tuple[tuple, tuple[int, int]]] = []

    def update(terms: _ZiTerms, lh: Expvec) -> None:
        k = len(polys)
        polys.append(_element(terms, lh))
        lms.append(lh)
        new = [(t, mono_lcm(lh, lms[t])) for t in kept]
        chosen: list[tuple[int, Expvec]] = []
        for n, (t, l) in enumerate(new):
            coprime = l == mono_mul(lh, lms[t])
            if coprime or not any(mono_divides(m, l) for _, m in new[n + 1 :] + chosen):
                chosen.append((t, l))
        for ij, l in list(pending.items()):
            if (
                mono_divides(lh, l)
                and mono_lcm(lms[ij[0]], lh) != l
                and mono_lcm(lms[ij[1]], lh) != l
            ):
                del pending[ij]
        for t, l in chosen:
            if l != mono_mul(lh, lms[t]):
                pending[(k, t)] = l
                heappush(heap, (key(l), (k, t)))
        kept[:] = [t for t in kept if not mono_divides(lh, lms[t])] + [k]
        reducers[:] = [polys[t] for t in kept]

    for g in filter(None, gens):
        if g.is_constant():
            return [Poly.one(g.ring)]
        update(_integral(g)[0], g.leading_monomial(order))
    while heap:
        _, (i, j) = heappop(heap)
        l = pending.pop((i, j), None)
        if l is None:
            continue  # killed by a later update
        (li, ai, ti, _), (lj, aj, tj, _) = polys[i], polys[j]
        g = gcd(ai, aj)
        s: _ZiTerms = {}  # (aj/g)*x^(l - li)*fi - (ai/g)*x^(l - lj)*fj; the leading terms cancel
        _sub_scaled(s, -(aj // g), 0, mono_div(l, li), ti)
        _sub_scaled(s, ai // g, 0, mono_div(l, lj), tj)
        r, _ = _remainder(s, reducers, key)
        if r:
            lr = next(iter(r))
            if not any(lr):  # a nonzero constant: the unit ideal
                return [Poly.one(gens[0].ring)]
            update(r, lr)
    basis: list[_Element] = []  # ascending, so only earlier elements can divide a term
    for lm, _, _, terms in sorted(reducers, key=lambda el: key(el[0])):
        if not any(mono_divides(b[0], lm) for b in basis):
            basis.append(_element(_remainder(dict(terms), basis, key)[0], lm))
    return [Poly._raw(gens[0].ring, _rational(t, _gauss(1, 0, a))) for _, a, _, t in basis[::-1]]


def minimal_polynomial(basis: Sequence[Poly], u: Poly) -> list[GaussRat]:
    """The monic minimal polynomial of u modulo a zero-dimensional ideal, ascending.

    basis is a grevlex Groebner basis of the ideal.  The normal forms of
    1, u, u^2, ... are taken as NF(u*NF(u^(k-1))) until there are more
    of them than distinct monomials in them, so they are linearly
    dependent; the caller checks zero-dimensionality first, since on a
    larger ideal that need never happen.  The first column k of their
    coefficient matrix that is not a pivot of its reduced row echelon
    form holds the relation u^k = sum c_j*u^j over j < k, and the pivot
    columns before it admit no shorter one (Cox, Little, O'Shea, Using
    Algebraic Geometry, Ch. 2).  For u the last variable this is the
    monic generator of the ideal's intersection with QQ(i)[u], the last
    element of its reduced lex basis.  The unit ideal, where 1 reduces
    to zero, gives [1].
    """
    forms = [reduce_full(Poly.one(u.ring), basis)]
    monos = set(forms[0].terms)
    while len(forms) <= len(monos):
        forms.append(reduce_full(u * forms[-1], basis))
        monos.update(forms[-1].terms)
    red, pivots = rref([[f.terms.get(e, ZERO) for f in forms] for e in sorted(monos)])
    k = next(j for j, c in enumerate(pivots + [len(forms)]) if j != c)
    return [-red[j][k] for j in range(k)] + [ONE]


def groebner_basis(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list[Poly]:
    """The reduced Groebner basis of (gens), by descending leading monomial; see `buchberger`."""
    return buchberger(gens, order)


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
