"""Multivariate gcd over QQ(i), read off the lcm.

The ideal (p) meet (q) is principal, generated by lcm(p, q), and it is
the elimination ideal (t*p, (1 - t)*q) meet k[x] for a fresh variable t;
then gcd(p, q) = p*q / lcm(p, q) (Cox, Little, O'Shea, Ideals,
Varieties, and Algorithms, Thm. 4.3.11 and Prop. 4.3.14).  Buchberger's
algorithm in an order that eliminates t finds the lcm, and two exact
divisions give the gcd; results are normalized monic.
"""

from __future__ import annotations

from .groebner import buchberger
from .poly import BlockElim, Poly, exact_divide, fresh_names


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is 0.

    The divisibility of both inputs by the result is asserted, so a
    returned value is its own certificate.
    """
    p._check_ring(q)
    if not p or not q:
        return (p or q).monic()
    (t,) = fresh_names(p.ring, ["t"])
    ring = (t,) + p.ring
    tv = Poly.var(ring, t)
    basis = buchberger([tv * p.embed(ring), (1 - tv) * q.embed(ring)], BlockElim(1))
    # the t-free elements are the reduced basis of the principal ideal (lcm), so just the monic lcm
    (lcm,) = (g.embed(p.ring) for g in basis if not g.uses(t))
    cofactor = exact_divide(lcm, q)  # p/gcd up to a scalar
    g = None if cofactor is None else exact_divide(p, cofactor)
    if g is None:
        raise ArithmeticError("gcd does not divide first input")
    if exact_divide(q, g) is None:
        raise ArithmeticError("gcd does not divide second input")
    return g.monic()
