"""Buchberger's algorithm, FGLM, normal forms, and ideal presentations.

Reduced Groebner bases are the workhorse for every ideal question in
this package: membership, equality, containment, elimination.  Normal
forms use the division algorithm `poly._divide` (Cox, Little, O'Shea,
Ideals, Varieties, and Algorithms, Thm. 2.3.3) over QQ(i), since they
need the exact remainder.  Membership does not depend on the order, so
it uses the grevlex basis.

`buchberger` keeps its pending pairs in a heap under the normal
selection strategy, drops the pairs that the Gebauer-Moller criteria
and the coprimality criterion prove redundant, and stops with [1] at the
first nonzero constant remainder.  It runs fraction-free, over Z[i]:
each element it keeps is a private term map of Gaussian integers (a, b)
with a positive integer leading coefficient and no integer content.  A
real leading coefficient is what keeps the coefficients small: see the
docstring of `buchberger`.  It returns its elements made monic, as
Polys over QQ(i), so callers never see the Z[i] form.

`groebner_basis` cuts that monic output to a minimal basis, one element
per minimal leading monomial, and reduces each kept element once by the
other kept elements with smaller leading monomials, the only ones that
can divide its terms.  Reduction leaves every leading monomial in place,
so this is the reduced basis, which is unique (Cox, Little, O'Shea,
Prop. 2.7.6); it is returned sorted by descending leading monomial, so
identical ideals give identical bases on every run.  `fglm` converts
the grevlex basis of a zero-dimensional ideal to the reduced lex basis
by linear algebra on normal forms, which is how the solver gets its lex
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Callable, Iterable, Sequence

from .poly import (
    GREVLEX,
    LEX,
    Expvec,
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
from .scalars import ONE, _reduce as _gauss


def reduce_full(p: Poly, basis: Sequence[Poly], order: MonomialOrder = GREVLEX) -> Poly:
    """Remainder of p after full reduction by basis (every term reduced)."""
    return _divide(p, basis, order)[1]


# Buchberger's private form of a polynomial: a term map from exponent
# vectors to Gaussian integers a + b*i, stored as pairs (a, b).
_ZiTerms = dict[Expvec, tuple[int, int]]
# The terms of an element other than its leading one, as triples (e, a, b).
_Tail = list[tuple[Expvec, int, int]]
# An element Buchberger keeps: its leading monomial, its leading
# coefficient (a positive integer), its tail, and its whole term map.
_Element = tuple[Expvec, int, _Tail, _ZiTerms]


def _integral(p: Poly) -> _ZiTerms:
    """p times the lcm of its denominators, as a Z[i] term map."""
    d = 1
    for c in p.terms.values():
        d = lcm(d, c.d)
    return {e: (c.a * (d // c.d), c.b * (d // c.d)) for e, c in p.terms.items()}


def _normalize(terms: _ZiTerms, lm: Expvec) -> _ZiTerms:
    """terms times the conjugate of its leading coefficient, over its integer content.

    The leading coefficient of the result is a positive integer.
    """
    a, b = terms[lm]
    if b:
        terms = {e: (x * a + y * b, y * a - x * b) for e, (x, y) in terms.items()}
    elif a < 0:
        terms = {e: (-x, -y) for e, (x, y) in terms.items()}
    g = 0
    for x, y in terms.values():
        g = gcd(g, x, y)
        if g == 1:
            return terms
    return {e: (x // g, y // g) for e, (x, y) in terms.items()}


def _sub_scaled(work: _ZiTerms, u: int, v: int, m: Expvec, tail: _Tail) -> None:
    """work -= (u + v*i) * x^m * tail, in place, dropping the terms that cancel."""
    for t, x, y in tail:
        t = tuple(map(add, m, t))
        p, q = u * x - v * y, u * y + v * x
        old = work.get(t)
        if old is None:
            work[t] = (-p, -q)
        else:
            p, q = old[0] - p, old[1] - q
            if p or q:
                work[t] = (p, q)
            else:
                del work[t]


def _remainder(
    work: _ZiTerms, reducers: list[_Element], key: Callable[[Expvec], tuple]
) -> _ZiTerms:
    """The remainder of work by the reducers, up to a positive integer factor.

    The division algorithm of `poly._divide` without fractions: to cancel
    the leading term (u + v*i)*x^e of what is left by a reducer with
    leading term a*x^lm, everything left and the remainder so far are
    multiplied by a/g, and (u + v*i)/g * x^(e - lm) times the reducer is
    subtracted, where g = gcd(a, u, v).  Because a is an integer, that
    factor is an integer.  The remainder comes out in descending order,
    its leading term first.  work is consumed.
    """
    rem: _ZiTerms = {}
    while work:
        e = max(work, key=key)
        for lm, a, tail, _ in reducers:
            if all(map(le, lm, e)):
                u, v = work.pop(e)
                g = gcd(a, u, v)
                if g != a:
                    f = a // g
                    for part in (work, rem):
                        for t, (x, y) in part.items():
                            part[t] = (x * f, y * f)
                _sub_scaled(work, u // g, v // g, tuple(map(sub, e, lm)), tail)
                break
        else:
            rem[e] = work.pop(e)
    return rem


class _Keys(dict):
    """order.key of each exponent vector, computed on first use.

    One Buchberger run asks for the keys of the same monomials many times.
    """

    def __init__(self, order: MonomialOrder):
        self.order = order

    def __missing__(self, e: Expvec) -> tuple:
        k = self[e] = self.order.key(e)
        return k


def buchberger(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list[Poly]:
    """A Groebner basis of (gens), or [1] as soon as the ideal is seen to be the unit ideal.

    Becker and Weispfenning's GROEBNERNEW2 (Groebner Bases, Sec. 5.5):
    each new element goes through the Gebauer-Moller UPDATE, which drops
    the pairs that the chain and coprime criteria prove redundant and the
    kept elements whose leading monomial it divides.  Pending pairs sit
    in a heap keyed once, at creation, by (lcm key, indices): the normal
    selection strategy.  A pair that a later UPDATE kills stays in the
    heap and is skipped when it comes up.  S-polynomials are reduced by
    the kept elements only, and the kept elements are returned, monic.

    The run is fraction-free, over Z[i] (ibid., Sec. 5.5; von zur Gathen
    and Gerhard, Modern Computer Algebra, Ch. 6): inputs are cleared of
    denominators, S-polynomials and reduction steps cross-multiply by
    leading coefficients, and every new element is multiplied by the
    conjugate of its leading coefficient and divided by its integer
    content.  Every element so has a positive integer leading
    coefficient, so each reduction step multiplies by an integer, and
    integer content is all that can build up; with Gaussian leading
    coefficients, Gaussian factors that no integer content removes build
    up instead, and the coefficients blow up.  Each element is a nonzero
    scalar multiple of the one the same run over QQ(i) would keep, and
    pairs are chosen from leading monomials only, so the pairs, the
    kept elements and the monic output are those of the run over QQ(i).
    """
    keys = _Keys(order)
    key = keys.__getitem__
    polys: list[_Element] = []  # every element ever added; pairs index into it
    lms: list[Expvec] = []
    kept: list[int] = []
    reducers: list[_Element] = []
    pending: dict[tuple[int, int], Expvec] = {}  # live pair -> lcm of its leading monomials
    heap: list[tuple[tuple, tuple[int, int]]] = []

    def update(terms: _ZiTerms, lh: Expvec) -> None:
        terms = _normalize(terms, lh)
        k = len(polys)
        tail = [(e, x, y) for e, (x, y) in terms.items() if e != lh]
        polys.append((lh, terms[lh][0], tail, terms))
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
        update(_integral(g), g.leading_monomial(order))
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
        r = _remainder(s, reducers, key)
        if r:
            lr = next(iter(r))
            if not any(lr):  # a nonzero constant: the unit ideal
                return [Poly.one(gens[0].ring)]
            update(r, lr)
    return [
        Poly._raw(gens[0].ring, {e: _gauss(x, y, a) for e, (x, y) in terms.items()})
        for _, a, _, terms in reducers
    ]


def fglm(basis: Sequence[Poly]) -> list[Poly]:
    """The reduced lex basis of a zero-dimensional ideal, from a grevlex basis of it.

    FGLM (Faugere, Gianni, Lazard, Mora, J. Symb. Comp. 1993): walk the
    monomials in ascending lex order, starting at 1 and going up through
    the multiples x*b of the standard monomials b found so far, skipping
    multiples of the leading monomials found so far.  The grevlex normal
    form of each monomial is either a linear combination of the normal
    forms of the standard monomials below it, which gives the basis
    element m - sum c_b*b, or independent of them, which makes m
    standard.  The walk is finite because the quotient is; the caller
    checks zero-dimensionality first, since on a larger ideal the walk
    never ends.
    """
    ring = basis[0].ring
    one = (0,) * len(ring)
    forms: dict[Expvec, Poly] = {}  # grevlex normal form of each standard monomial
    rows: list[tuple[Expvec, Poly, Poly]] = []  # pivot, normal-form vector, its monomial combination
    lms: list[Expvec] = []
    found: list[Poly] = []
    todo = [(LEX.key(one), one, -1, one)]  # (key, monomial, v, b) with monomial = x_v * b
    while todo:
        _, m, v, b = heappop(todo)
        if m in forms or any(mono_divides(lm, m) for lm in lms):
            continue
        if v < 0:
            nf = reduce_full(Poly.one(ring), basis)
        else:
            shifted = {e[:v] + (e[v] + 1,) + e[v + 1 :]: c for e, c in forms[b].terms.items()}
            nf = reduce_full(Poly._raw(ring, shifted), basis)
        vec, comb = dict(nf.terms), {m: ONE}
        for pivot, row, row_comb in rows:  # each row is zero at the earlier rows' pivots
            c = vec.get(pivot)
            if c:
                _sub_multiple(vec, c, one, row)
                _sub_multiple(comb, c, one, row_comb)
        if not vec:
            lms.append(m)
            found.append(Poly._raw(ring, comb))
            continue
        pivot = next(iter(vec))
        inv = vec[pivot].inverse()
        rows.append((pivot, Poly._raw(ring, vec) * inv, Poly._raw(ring, comb) * inv))
        forms[m] = nf
        for w in range(len(ring)):
            xm = m[:w] + (m[w] + 1,) + m[w + 1 :]
            heappush(todo, (LEX.key(xm), xm, w, m))
    return found[::-1]


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
