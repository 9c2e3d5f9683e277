"""Independent reference routes for cross-checking the library.

Nothing here may call the code path it checks: bracket expansion goes
through the bivector formula instead of the z-strata closed form, Ore
products through the Leibniz expansion of z^i * b instead of one step
of z at a time, ideal membership goes through bounded linear algebra
instead of basis reduction, the stable-curve search goes through sympy's
solver, reduced Groebner bases come from sympy's groebner, remainders of
the division algorithm from sympy's reduced over QQ(i) instead of the
package's fraction-free division loop over Z[i], S-polynomials from
Poly arithmetic over QQ(i) instead of Buchberger's fraction-free form
over Z[i], univariate roots over QQ(i) come from the linear factors
of sympy's factorization over QQ(i), gcds come from sympy's gcd over
QQ(i), irreducible factors from sympy's factor_list over QQ(i), and
preimages under a derivation from forward elimination on the images of
monomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from poissonore import Derivation, GaussRat, Poly, render
from poissonore.polycore import MonomialOrder


def bracket_by_biderivation(delta: Derivation, p: Poly, q: Poly) -> Poly:
    """{p, q} as the bivector sum over generator pairs.

    The bracket is a biderivation, so it is determined by its values on
    (z, v) pairs; this expands through partial derivatives only.
    """
    ring = delta.ring + ("z",)
    p = p.embed(ring)
    q = q.embed(ring)
    out = Poly.zero(ring)
    for v in delta.ring:
        dv = delta.image(v).embed(ring)
        out = out + dv * (p.partial("z") * q.partial(v) - p.partial(v) * q.partial("z"))
    return out


def ore_product_by_leibniz(delta: Derivation, a: Poly, b: Poly) -> Poly:
    """The product a*b in A[z; delta] of two left normal forms.

    a and b are read as polynomials in the base variables and z; the
    product comes back the same way.  It expands through
    z^i b = sum_k C(i, k) delta^k(b) z^(i-k) on their z-strata.
    """
    ring = delta.ring + ("z",)
    a_strata = a.embed(ring).strata("z")
    b_strata = b.embed(ring).strata("z")
    out = Poly.zero(ring)
    for j, bj in b_strata.items():
        power = bj  # delta^k(b_j)
        for k in range(max(a_strata, default=0) + 1):
            for i, ai in a_strata.items():
                if i >= k:
                    zpow = Poly.monomial(ring, {"z": i - k + j}, comb(i, k))
                    out = out + (ai * power).embed(ring) * zpow
            power = delta.apply(power)
    return out


def _monomials_through(ring: tuple[str, ...], bound: int) -> list[tuple[int, ...]]:
    out = []
    for exps in itertools.product(range(bound + 1), repeat=len(ring)):
        if sum(exps) <= bound:
            out.append(exps)
    return out


def _consistent(rows: list[list[GaussRat]], rhs: list[GaussRat]) -> bool:
    """Existence of a solution, by plain forward elimination."""
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        hit = next((r for r in range(pivot_row, len(aug)) if aug[r][col]), None)
        if hit is None:
            continue
        aug[pivot_row], aug[hit] = aug[hit], aug[pivot_row]
        inv = aug[pivot_row][col].inverse()
        aug[pivot_row] = [x * inv for x in aug[pivot_row]]
        for r in range(len(aug)):
            if r != pivot_row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
    return all(any(row[:-1]) or not row[-1] for row in aug)


def membership_by_linear_algebra(gens: list[Poly], p: Poly, bound: int) -> bool:
    """Whether p = sum c_i g_i with every deg(c_i g_i) <= bound.

    A yes is a certificate of membership; a no only rules out witnesses
    inside the degree bound, so callers must pick the bound to dominate
    the witness they expect.
    """
    ring = p.ring
    columns = []
    for g in gens:
        if g.is_zero() or g.total_degree() > bound:
            continue
        for m in _monomials_through(ring, bound - g.total_degree()):
            columns.append(Poly.monomial(ring, dict(zip(ring, m))) * g)
    support = _monomials_through(ring, bound)
    index = {e: k for k, e in enumerate(support)}
    rows = [[GaussRat() for _ in columns] for _ in support]
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            rows[index[e]][j] = c
    rhs = [GaussRat() for _ in support]
    for e, c in p.terms.items():
        if e not in index:
            return False
        rhs[index[e]] = c
    if not columns:
        return p.is_zero()
    return _consistent(rows, rhs)


def in_image_by_linear_algebra(delta: Derivation, target: Poly, dmax: int) -> bool:
    """Whether target = delta(p) for some p of total degree <= dmax.

    The columns are the images of the monomials of degree <= dmax, one row
    per monomial that any column or the target uses.
    """
    ring = delta.ring
    columns = [
        delta.apply(Poly.monomial(ring, dict(zip(ring, m))))
        for m in _monomials_through(ring, dmax)
    ]
    support = sorted({e for col in columns for e in col.terms} | set(target.terms))
    rows = [[col.terms.get(e, GaussRat()) for col in columns] for e in support]
    rhs = [target.terms.get(e, GaussRat()) for e in support]
    return _consistent(rows, rhs)


# -- sympy bridge ------------------------------------------------------------------


def _to_sympy(p: Poly, symbols: dict):
    import sympy

    acc = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
        for v, k in zip(p.ring, e):
            term *= symbols[v] ** k
        acc += term
    return sympy.expand(acc)


def _gauss_from_sympy(val) -> GaussRat | None:
    """val as a GaussRat, or None when it is not in QQ(i).

    nsimplify only runs on values whose parts are not already rational:
    on exact rationals it may return radicals (4859/1944 comes back as a
    product of fractional powers of primes).
    """
    import sympy

    val = sympy.expand(val)
    re, im = val.as_real_imag()
    if not (re.is_rational and im.is_rational):
        re, im = sympy.nsimplify(val).as_real_imag()
    if not (re.is_rational and im.is_rational):
        return None
    return GaussRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def stable_curves_by_sympy(delta: Derivation, dmax: int) -> tuple[set[str], bool]:
    """Monic stable q of degree <= dmax, found with sympy's solver.

    Returns the rendered polynomials with coefficients in QQ(i) and a
    flag marking strata where the solution set was positive-dimensional.
    """
    import sympy

    from poissonore.polycore import GREVLEX

    ring = delta.ring
    symbols = {v: sympy.Symbol(v) for v in ring}
    images = {v: _to_sympy(delta.image(v), symbols) for v in ring}
    mid = max((delta.image(v).total_degree() for v in ring), default=0)
    wdeg = max(mid - 1, 0)
    wsupport = _monomials_through(ring, wdeg)
    def mono(e):
        acc = sympy.Integer(1)
        for v, k in zip(ring, e):
            acc *= symbols[v] ** k
        return acc

    found: set[str] = set()
    family = False
    monos = _monomials_through(ring, dmax)
    for lm in monos:
        if sum(lm) < 1:
            continue
        support = [m for m in monos if GREVLEX.key(m) < GREVLEX.key(lm)]
        us = [sympy.Symbol(f"u{k}") for k in range(len(support))]
        ws = [sympy.Symbol(f"w{k}") for k in range(len(wsupport))]
        q = mono(lm) + sum(u * mono(m) for u, m in zip(us, support))
        w = sum(wc * mono(m) for wc, m in zip(ws, wsupport))
        residue = sympy.expand(
            sum(images[v] * sympy.diff(q, symbols[v]) for v in ring) - w * q
        )
        if residue.is_zero:
            eqs = []
        else:
            eqs = sympy.Poly(residue, *[symbols[v] for v in ring]).coeffs()
        try:
            sols = sympy.solve(eqs, us + ws, dict=True)
        except NotImplementedError:
            family = True
            continue
        for sol in sols:
            if any(sym not in sol for sym in us) or any(
                sol[sym].free_symbols for sym in us if sym in sol
            ):
                family = True
                continue
            coeffs = [_gauss_from_sympy(sol[sym]) for sym in us]
            if any(c is None for c in coeffs):
                continue
            terms = {tuple(lm): GaussRat.coerce(1)}
            for c, m in zip(coeffs, support):
                if c:
                    terms[tuple(m)] = c
            found.add(render(Poly(ring, terms)))
    return found, family


def roots_by_sympy(coeffs: list[GaussRat]) -> set[GaussRat]:
    """The roots in QQ(i) of sum(coeffs[k] * t**k): those of its linear factors over QQ(i)."""
    import sympy

    t = sympy.Symbol("t")
    f = _to_sympy(Poly(("t",), {(k,): c for k, c in enumerate(coeffs) if c}), {"t": t})
    _, factors = sympy.factor_list(f, t, gaussian=True)
    out = set()
    for g, _ in factors:
        if sympy.degree(g, t) == 1:
            a, b = sympy.Poly(g, t).all_coeffs()
            out.add(_gauss_from_sympy(-b / a))
    return out


def _sympy_order(order: MonomialOrder):
    """sympy's name for grevlex or lex; for a BlockElim, sympy's product
    of grevlex on the leading block and grevlex on the rest."""
    from sympy.polys.orderings import ProductOrder, grevlex

    if order.tag.startswith("elim:"):
        head = order.head
        return ProductOrder((grevlex, lambda m: m[:head]), (grevlex, lambda m: m[head:]))
    return order.tag


def groebner_by_sympy(gens: list[Poly], order: MonomialOrder) -> list[Poly]:
    """The reduced basis of (gens) from sympy's groebner over QQ(i).

    order must be grevlex, lex or a BlockElim; each element is made
    monic in the package's order, and the list is sorted by descending
    leading monomial, the package's presentation.
    """
    import sympy

    ring = gens[0].ring
    symbols = {v: sympy.Symbol(v) for v in ring}
    basis = sympy.groebner(
        [_to_sympy(g, symbols) for g in gens],
        *symbols.values(),
        order=_sympy_order(order),
        domain="QQ_I",
    )
    out = [
        Poly(ring, {e: _gauss_from_sympy(c) for e, c in g.terms()}).monic(order)
        for g in basis.polys
    ]
    return sorted(out, key=lambda g: order.key(g.leading_monomial(order)), reverse=True)


def reduced_by_sympy(p: Poly, divisors: list[Poly], order: MonomialOrder) -> Poly:
    """The remainder of p by the divisors from sympy's reduced over QQ(i).

    The divisors need not form a Groebner basis; zeros among them are
    dropped.  order is as for groebner_by_sympy.
    """
    import sympy

    divisors = [g for g in divisors if g]
    if not divisors:
        return p
    symbols = {v: sympy.Symbol(v) for v in p.ring}
    _, r = sympy.reduced(
        _to_sympy(p, symbols),
        [_to_sympy(g, symbols) for g in divisors],
        *symbols.values(),
        order=_sympy_order(order),
        extension=sympy.I,
    )
    if r == 0:
        return Poly.zero(p.ring)
    terms = sympy.Poly(r, *symbols.values(), extension=sympy.I).terms()
    return Poly(p.ring, {e: _gauss_from_sympy(c) for e, c in terms})


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """x^(l - lm f)*f/lc(f) - x^(l - lm g)*g/lc(g) with l = lcm(lm f, lm g), by Poly arithmetic."""
    lf, cf = f.leading_term(order)
    lg, cg = g.leading_term(order)
    l = tuple(map(max, lf, lg))

    def cofactor(lm, c):
        return Poly(f.ring, {tuple(a - b for a, b in zip(l, lm)): c.inverse()})

    return cofactor(lf, cf) * f - cofactor(lg, cg) * g


def gcd_by_sympy(p: Poly, q: Poly) -> Poly:
    """gcd(p, q) from sympy's gcd over QQ(i), made monic in grevlex; gcd(0, 0) is 0."""
    import sympy

    ring = p.ring
    symbols = {v: sympy.Symbol(v) for v in ring}
    f, g = (sympy.Poly(_to_sympy(a, symbols), *symbols.values(), domain="QQ_I") for a in (p, q))
    return Poly(ring, {e: _gauss_from_sympy(c) for e, c in sympy.gcd(f, g).terms()}).monic()


def factors_by_sympy(p: Poly) -> tuple[GaussRat, list[Poly]]:
    """Content and monic irreducible factors of p, from sympy's factor_list over QQ(i).

    Each factor is made monic in grevlex and repeated by its
    multiplicity; the content collects sympy's constant and the leading
    coefficients taken out, and the factors are sorted by their
    rendering.
    """
    import sympy

    ring = p.ring
    symbols = {v: sympy.Symbol(v) for v in ring}
    coeff, factors = sympy.factor_list(_to_sympy(p, symbols), *symbols.values(), gaussian=True)
    content = _gauss_from_sympy(coeff)
    out = []
    for f, k in factors:
        terms = sympy.Poly(f, *symbols.values(), domain="QQ_I").terms()
        g = Poly(ring, {e: _gauss_from_sympy(c) for e, c in terms})
        content = content * g.leading_coeff() ** k
        out.extend([g.monic()] * k)
    return content, sorted(out, key=render)
