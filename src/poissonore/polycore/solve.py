"""QQ(i)-rational solutions of small polynomial systems.

The strategy is tuned to coefficient-matching systems, which are mostly
linear: eliminate variables that occur linearly with constant
coefficient, and branch on the QQ(i) roots of univariate constraints.
When neither applies, compute the grevlex basis, which stops at the unit
ideal (no solution); test zero-dimensionality on its leading monomials;
and branch on the roots of the minimal polynomial of the last variable
modulo the ideal, the generator of its univariate part, substituting
each into the grevlex basis.  Univariate roots come in closed form
up to degree two and from a certified p-adic root finder beyond (see
univariate_roots and padic.py); the method is complete, so no input is
too large to answer.  Systems whose solution set has positive dimension
over the given unknowns raise SolutionFamily; enumerating them as a list
would be dishonest.

Elimination stays in the ring that solve_system receives: a pivot value
or a root goes only into the equations that use its variable, and the
others pass through untouched.  Only the Groebner step moves the
equations into the ring of the variables still unknown.
"""

from __future__ import annotations

from .gcd import gcd_poly
from .groebner import groebner_basis, minimal_polynomial
from .padic import scaled_root_candidates, squarefree_at_first_prime
from .poly import GREVLEX, Expvec, Poly, _add_term, _integral, exact_divide, mono_mul
from .scalars import GaussRat, ZERO, gauss_sqrt

Assignment = dict[str, GaussRat]


class SolutionFamily(Exception):
    """The solution set is infinite (positive-dimensional over QQ(i)-bar)."""


# -- univariate roots over QQ(i) -------------------------------------------


def univariate_roots(coeffs: list[GaussRat]) -> list[GaussRat]:
    """All roots in QQ(i) of sum(coeffs[k] * t**k), ascending degree.

    Degrees one and two are solved in closed form.  Beyond that, f with
    its denominators cleared is g over Z[i], with the same roots.  When
    that g is not proved squarefree modulo the first split prime
    (padic.squarefree_at_first_prime), g is taken instead from f divided
    by gcd(f, f'): the same roots, each simple.  Let lc be the leading
    coefficient of g.
    padic.scaled_root_candidates yields one Gaussian integer w per root
    of g modulo a split prime, lifted p-adically and read back by lattice
    reduction.  Each w/lc is kept only if Horner evaluation of f at it
    over QQ(i) gives exactly zero.

    Complete: for a root r in QQ(i), lc*r is a Gaussian integer within
    Cauchy's bound B; it reduces to a simple root modulo the prime, whose
    Newton lift is unique, and it is the only point of its lattice coset
    within B, which rounding finds.  The full argument is in the
    docstring of padic.scaled_root_candidates.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots: set[GaussRat] = set()
    while len(coeffs) > 1 and not coeffs[0]:
        roots.add(ZERO)
        coeffs = coeffs[1:]
    deg = len(coeffs) - 1
    if deg == 0:
        pass
    elif deg == 1:
        roots.add(-coeffs[0] / coeffs[1])
    elif deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        s = gauss_sqrt(disc)
        if s is not None:
            roots.add((-b + s) / (2 * a))
            roots.add((-b - s) / (2 * a))
    else:
        f = Poly._raw(("t",), {(k,): c for k, c in enumerate(coeffs) if c})
        ints = _dense(f)
        if not squarefree_at_first_prime(ints):
            ints = _dense(exact_divide(f, gcd_poly(f, f.partial("t"))))  # same roots, each simple
        lc = GaussRat(*ints[-1])
        for w in scaled_root_candidates(ints):
            cand = GaussRat(*w) / lc
            acc = ZERO
            for c in reversed(coeffs):
                acc = acc * cand + c
            if not acc:
                roots.add(cand)
    return sorted(roots, key=GaussRat.sort_key)


def _dense(f: Poly) -> list[tuple[int, int]]:
    """The coefficients of f in t, ascending, cleared of denominators (`poly._integral`)."""
    terms = _integral(f)[0]
    return [terms.get((k,), (0, 0)) for k in range(f.total_degree() + 1)]


# -- system solving -----------------------------------------------------------


def _as_univariate(p: Poly) -> tuple[str, list[GaussRat]] | None:
    used = p.used_vars()
    if len(used) != 1:
        return None
    v = used[0]
    i = p.ring.index(v)
    coeffs = [ZERO] * (p.degree_in(v) + 1)
    for e, c in p.terms.items():
        coeffs[e[i]] = c
    return v, coeffs


def _linear_pivot(p: Poly) -> tuple[str, Poly] | None:
    """The first ring variable v with p == a*v + rest, a constant and rest free of v, and its value -rest/a.

    One scan over the terms: the degree-one terms are the candidates,
    and a candidate's variable is ruled out when another term uses it.
    The value is in p's ring.
    """
    units: dict[int, Expvec] = {}
    others = []
    for e in p.terms:
        if sum(e) == 1:
            units[e.index(1)] = e
        else:
            others.append(e)
    for i in sorted(units):
        if not any(e[i] for e in others):
            unit = units[i]
            k = -1 / p.terms[unit]
            return p.ring[i], Poly._raw(p.ring, {e: c * k for e, c in p.terms.items() if e != unit})
    return None


def solve_system(eqs: list[Poly], ring: tuple[str, ...]) -> list[Assignment]:
    """All QQ(i) assignments of the ring variables satisfying eqs == 0.

    Raises SolutionFamily when infinitely many assignments work.
    """
    live = [q for q in (e.embed(ring) for e in eqs) if q]
    sols = [] if any(q.is_constant() for q in live) else _solve(live, ring)
    return sorted(
        sols, key=lambda s: tuple(s[v].sort_key() for v in ring)
    )


def _solve(live: list[Poly], unknowns: tuple[str, ...]) -> list[Assignment]:
    """The solutions in the unknowns of the equations live, none of them constant.

    The unknowns are the ring variables not yet eliminated.  Every
    equation stays in the ring that solve_system received, and the
    eliminated variables no longer occur in it; only the Groebner step
    moves the equations into the ring of the unknowns.
    """
    if not unknowns:
        return [{}]
    if not live:
        raise SolutionFamily(f"variables {unknowns} are unconstrained")

    for k, e in enumerate(live):
        piv = _linear_pivot(e)
        if piv is None:
            continue
        v, value = piv
        return _eliminate(live[:k] + live[k + 1 :], unknowns, v, [value])

    for e in live:
        uni = _as_univariate(e)
        if uni is None:
            continue
        v, coeffs = uni
        return _eliminate(live, unknowns, v, univariate_roots(coeffs))

    gb = groebner_basis([e.embed(unknowns) for e in live], GREVLEX)
    if gb[0].is_constant():
        return []
    free = _unbounded_variable(gb)
    if free is not None:
        raise SolutionFamily(f"no univariate constraint isolates {free!r}")
    last = unknowns[-1]
    roots = univariate_roots(minimal_polynomial(gb, Poly.var(unknowns, last)))
    ring = live[0].ring
    return _eliminate([g.embed(ring) for g in gb], unknowns, last, roots)


def _unbounded_variable(basis: list[Poly]) -> str | None:
    """The first ring variable with no pure power among the leading monomials of a grevlex basis.

    None means every variable has one (1 counts as the zeroth power): the
    ideal is zero-dimensional (Cox, Little, O'Shea, Thm. 5.3.6).
    """
    lms = [g.leading_monomial(GREVLEX) for g in basis]
    for i, v in enumerate(basis[0].ring):
        if not any(not any(lm[:i] + lm[i + 1 :]) for lm in lms):
            return v
    return None


def _eliminate(
    eqs: list[Poly], unknowns: tuple[str, ...], var: str, values: list[Poly | GaussRat]
) -> list[Assignment]:
    """Solutions of eqs with var set to each value: the roots, or the one pivot value.

    The value goes only into the equations that use var, in their ring;
    the others pass through as the same objects.  A substituted equation
    that vanishes is dropped, and one that becomes a nonzero constant
    leaves the value without solutions.  A pivot value is a polynomial
    in the other unknowns, read off at each solution of the substituted
    system.
    """
    rest = tuple(v for v in unknowns if v != var)
    uses = [q.uses(var) for q in eqs]
    out = []
    for value in values:
        reduced = []
        for q, used in zip(eqs, uses):
            if used:
                q = _put(q, var, value)
                if q.is_constant():
                    if q:
                        break  # no solution with this value
                    continue
            reduced.append(q)
        else:
            for sol in _solve(reduced, rest):
                full = dict(sol)
                full[var] = value.evaluate(sol) if isinstance(value, Poly) else value
                out.append(full)
    return out


def _put(q: Poly, var: str, value: Poly | GaussRat) -> Poly:
    """q with value for var, in q's ring; value is free of var.

    A term c*m*var^k becomes c*m*value^k, each power of value computed once.
    """
    if not isinstance(value, Poly):
        value = Poly.constant(q.ring, value)
    i = q.ring.index(var)
    out: dict[Expvec, GaussRat] = {}
    powers = [None, value]
    for e, c in q.terms.items():
        k = e[i]
        if not k:
            _add_term(out, e, c)
            continue
        while len(powers) <= k:
            powers.append(powers[-1] * value)
        m = e[:i] + (0,) + e[i + 1 :]
        for f, d in powers[k].terms.items():
            _add_term(out, mono_mul(m, f), c * d)
    return Poly._raw(q.ring, out)
