"""QQ(i)-rational solutions of small polynomial systems.

The strategy is tuned to coefficient-matching systems, which are mostly
linear: eliminate variables that occur linearly with constant
coefficient, and branch on the QQ(i) roots of univariate constraints.
When neither applies, compute the grevlex basis, which stops at the unit
ideal (no solution); test zero-dimensionality on its leading monomials;
and convert it by FGLM to the reduced lex basis, whose last element is
univariate in the last variable.  Univariate roots come in closed form
up to degree two and from a certified p-adic root finder beyond (see
univariate_roots and padic.py); the method is complete, so no input is
too large to answer.  Systems whose solution set has positive dimension
over the given unknowns raise SolutionFamily; enumerating them as a list
would be dishonest.
"""

from __future__ import annotations

from math import lcm

from .gcd import gcd_poly
from .groebner import fglm, groebner_basis
from .padic import scaled_root_candidates, squarefree_at_first_prime
from .poly import GREVLEX, Poly, exact_divide
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
        ints = _cleared(coeffs)
        if not squarefree_at_first_prime(ints):
            f = Poly._raw(("t",), {(k,): c for k, c in enumerate(coeffs) if c})
            g = exact_divide(f, gcd_poly(f, f.partial("t")))  # same roots, each simple
            ints = _cleared([g.terms.get((k,), ZERO) for k in range(g.total_degree() + 1)])
        lc = GaussRat(*ints[-1])
        for w in scaled_root_candidates(ints):
            cand = GaussRat(*w) / lc
            acc = ZERO
            for c in reversed(coeffs):
                acc = acc * cand + c
            if not acc:
                roots.add(cand)
    return sorted(roots, key=GaussRat.sort_key)


def _cleared(coeffs: list[GaussRat]) -> list[tuple[int, int]]:
    """The coefficients times the lcm of their denominators, as Gaussian integers."""
    den = lcm(*(c.d for c in coeffs))
    return [(c.a * (den // c.d), c.b * (den // c.d)) for c in coeffs]


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


def _linear_pivot(p: Poly) -> tuple[str, GaussRat, Poly] | None:
    """If p == a*v + rest with constant a != 0 and rest free of v, return them."""
    for i, v in enumerate(p.ring):
        unit = tuple(1 if j == i else 0 for j in range(len(p.ring)))
        a = p.terms.get(unit)
        if a is None:
            continue
        if any(e[i] and e != unit for e in p.terms):
            continue
        rest = Poly._raw(p.ring, {e: c for e, c in p.terms.items() if e != unit})
        return v, a, rest
    return None


def solve_system(eqs: list[Poly], ring: tuple[str, ...]) -> list[Assignment]:
    """All QQ(i) assignments of the ring variables satisfying eqs == 0.

    Raises SolutionFamily when infinitely many assignments work.
    """
    eqs = [e.embed(ring) for e in eqs]
    sols = _solve(eqs, ring)
    return sorted(
        sols, key=lambda s: tuple(s[v].sort_key() for v in ring)
    )


def _solve(eqs: list[Poly], ring: tuple[str, ...]) -> list[Assignment]:
    live = [e for e in eqs if e]
    for e in live:
        if e.is_constant():
            return []
    if not ring:
        return [{}]
    if not live:
        raise SolutionFamily(f"variables {ring} are unconstrained")

    for e in live:
        piv = _linear_pivot(e)
        if piv is None:
            continue
        v, a, rest = piv
        value = rest.embed(_minus(ring, v)) * (-1 / a)  # rest is free of v
        return _eliminate([q for q in live if q is not e], ring, v, [value])

    for e in live:
        uni = _as_univariate(e)
        if uni is None:
            continue
        v, coeffs = uni
        return _eliminate(live, ring, v, univariate_roots(coeffs))

    gb = groebner_basis(live, GREVLEX)
    if gb[0].is_constant():
        return []
    free = _unbounded_variable(gb)
    if free is not None:
        raise SolutionFamily(f"no univariate constraint isolates {free!r}")
    gb = fglm(gb)
    # every variable has a pure power, so the smallest leading monomial is
    # one of the last variable and its element is univariate in it
    last, coeffs = _as_univariate(gb[-1])
    return _eliminate(gb, ring, last, univariate_roots(coeffs))


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
    eqs: list[Poly], ring: tuple[str, ...], var: str, values: list[Poly | GaussRat]
) -> list[Assignment]:
    """Solutions of eqs with var set to each value: the roots, or the one pivot value.

    A pivot value is a polynomial in the other variables, read off at
    each solution of the substituted system.
    """
    rest_ring = _minus(ring, var)
    out = []
    for value in values:
        reduced = [q.substitute(var, value) for q in eqs]
        for sol in _solve(reduced, rest_ring):
            full = dict(sol)
            full[var] = value.evaluate(sol) if isinstance(value, Poly) else value
            out.append(full)
    return out


def _minus(ring: tuple[str, ...], var: str) -> tuple[str, ...]:
    return tuple(v for v in ring if v != var)
