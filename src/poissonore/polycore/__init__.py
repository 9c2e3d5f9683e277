"""Exact commutative substrate: scalars, polynomials, gcd, Groebner bases."""

from .scalars import GaussRat, I, ONE, ZERO, gauss_sqrt, render_coeff
from .poly import (
    GREVLEX,
    LEX,
    BlockElim,
    MonomialOrder,
    Poly,
    canonical_ring,
    exact_divide,
    order_by_tag,
    render,
)
from .gcd import gcd_poly
from .groebner import Check, IdealPres, groebner_basis, reduce_full
from .linsolve import rref, solve_linear
from .solve import SolutionFamily, solve_system, univariate_roots

__all__ = [
    "GaussRat",
    "I",
    "ONE",
    "ZERO",
    "gauss_sqrt",
    "GREVLEX",
    "LEX",
    "BlockElim",
    "MonomialOrder",
    "Poly",
    "canonical_ring",
    "exact_divide",
    "order_by_tag",
    "render",
    "render_coeff",
    "gcd_poly",
    "Check",
    "IdealPres",
    "groebner_basis",
    "reduce_full",
    "rref",
    "solve_linear",
    "SolutionFamily",
    "solve_system",
    "univariate_roots",
]
