"""Multivariate gcd over QQ(i).

Content / primitive-part recursion on the top variable, with Brown's
subresultant PRS doing the univariate work.  Coefficient arithmetic
happens in the polynomial ring of the remaining variables, where exact
division is available; results are normalized monic.
"""

from __future__ import annotations

from .poly import Poly, exact_divide
from .scalars import GaussRat, ONE


def _coeff_of(p: Poly, var: str, k: int) -> Poly:
    """Coefficient of var**k, as a polynomial in the same ring."""
    i = p.ring.index(var)
    out = {}
    for e, c in p.terms.items():
        if e[i] == k:
            out[e[:i] + (0,) + e[i + 1 :]] = c
    return Poly(p.ring, out)


def _lead_coeff_in(p: Poly, var: str) -> Poly:
    return _coeff_of(p, var, p.degree_in(var))


def _prem(f: Poly, g: Poly, var: str) -> Poly:
    """Pseudo-remainder of f by g in var: lc(g)^(n-m+1)*f = q*g + r."""
    n, m = f.degree_in(var), g.degree_in(var)
    if m < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lc_g = _lead_coeff_in(g, var)
    v = Poly.var(f.ring, var)
    r = f
    steps = n - m + 1
    while r and r.degree_in(var) >= m:
        k = r.degree_in(var)
        lc_r = _coeff_of(r, var, k)
        r = lc_g * r - lc_r * g * v ** (k - m)
        steps -= 1
    if steps > 0:
        r = lc_g**steps * r
    return r


def _subresultant_last(f: Poly, g: Poly, var: str) -> Poly:
    """Last nonzero element of the subresultant PRS of (f, g) in var."""
    n, m = f.degree_in(var), g.degree_in(var)
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    b = Poly.constant(f.ring, GaussRat(-1) ** (d + 1))
    h = _prem(f, g, var) * b
    lc = _lead_coeff_in(g, var)
    c = -(lc**d)
    while h:
        k = h.degree_in(var)
        f, g, m, d = g, h, k, m - k
        b = -lc * c**d
        h = _prem(f, g, var)
        if h:
            h = exact_divide(h, b)
            if h is None:  # Brown's normalization divides exactly
                raise ArithmeticError("subresultant normalization failed")
        lc = _lead_coeff_in(g, var)
        if d > 1:
            c = exact_divide((-lc) ** d, c ** (d - 1))
            if c is None:
                raise ArithmeticError("subresultant normalization failed")
        else:
            c = -lc
    return g


def _main_var(p: Poly, q: Poly) -> str | None:
    for v in p.ring:
        if p.uses(v) or q.uses(v):
            return v
    return None


def _content_pp(p: Poly, var: str) -> tuple[Poly, Poly]:
    i = p.ring.index(var)
    coeffs: dict[int, dict] = {}
    for e, c in p.terms.items():
        coeffs.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1 :]] = c
    cont = Poly.zero(p.ring)
    for k in sorted(coeffs):
        cont = _gcd_raw(cont, Poly(p.ring, coeffs[k]))
        if cont.is_constant():
            break
    if cont.is_constant():
        return Poly.one(p.ring), p
    pp = exact_divide(p, cont)
    assert pp is not None
    return cont, pp


def _gcd_raw(p: Poly, q: Poly) -> Poly:
    """gcd up to a scalar; callers normalize."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_constant() or q.is_constant():
        return Poly.one(p.ring)
    var = _main_var(p, q)
    if not p.uses(var):
        cq, _ = _content_pp(q, var)
        return _gcd_raw(p, cq)
    if not q.uses(var):
        cp, _ = _content_pp(p, var)
        return _gcd_raw(cp, q)
    cp, pp_p = _content_pp(p, var)
    cq, pp_q = _content_pp(q, var)
    cont = _gcd_raw(cp, cq)
    last = _subresultant_last(pp_p, pp_q, var)
    if last.degree_in(var) <= 0:
        return cont
    _, gp = _content_pp(last, var)
    return cont * gp


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is 0.

    The divisibility of both inputs by the result is asserted, so a
    returned value is its own certificate.
    """
    p._check_ring(q)
    g = _gcd_raw(p, q)
    if g.is_zero():
        return g
    g = g.monic()
    if p and exact_divide(p, g) is None:
        raise ArithmeticError("gcd does not divide first input")
    if q and exact_divide(q, g) is None:
        raise ArithmeticError("gcd does not divide second input")
    return g
