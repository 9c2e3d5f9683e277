"""Poisson brackets on QQ(i)[x, y, z].

Two presentations of the same kind of structure live here.  A
PoissonTriple stores the generator brackets {y,z}, {z,x}, {x,y}
directly; a DeltaBracket is induced by a derivation d of the
z-free subring via {z, a} = d(a) and {a, b} = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deriv import Derivation
from .polycore import Check, GaussRat, IdealPres, Poly, exact_divide, gcd_poly
from .polycore.poly import GREVLEX

TRIPLE_RING = ("x", "y", "z")


class NotPoissonError(ValueError):
    """Raised where a Poisson structure or Poisson ideal is required."""


class PoissonTriple:
    """Bracket data (f, g, h) = ({y,z}, {z,x}, {x,y}) on QQ(i)[x,y,z]."""

    __slots__ = ("f", "g", "h")

    def __init__(self, f: Poly, g: Poly, h: Poly | None = None):
        if h is None:
            h = Poly.zero(TRIPLE_RING)
        object.__setattr__(self, "f", f.embed(TRIPLE_RING))
        object.__setattr__(self, "g", g.embed(TRIPLE_RING))
        object.__setattr__(self, "h", h.embed(TRIPLE_RING))

    def __setattr__(self, name, value):
        raise AttributeError("PoissonTriple is immutable")

    @property
    def ring(self) -> tuple[str, ...]:
        return TRIPLE_RING

    def components(self) -> tuple[Poly, Poly, Poly]:
        return (self.f, self.g, self.h)

    def bracket(self, p: Poly, q: Poly) -> Poly:
        """{p, q}, expanded through the biderivation closed form."""
        p = p.embed(TRIPLE_RING)
        q = q.embed(TRIPLE_RING)
        px, py, pz = (p.partial(v) for v in TRIPLE_RING)
        qx, qy, qz = (q.partial(v) for v in TRIPLE_RING)
        return (
            self.f * (py * qz - pz * qy)
            + self.g * (pz * qx - px * qz)
            + self.h * (px * qy - py * qx)
        )

    def __eq__(self, other):
        if not isinstance(other, PoissonTriple):
            return NotImplemented
        return self.components() == other.components()

    def __repr__(self):
        return f"<triple f={self.f!r}, g={self.g!r}, h={self.h!r}>"


def curl(triple: PoissonTriple) -> tuple[Poly, Poly, Poly]:
    """curl(f, g, h) in the coordinates (x, y, z)."""
    f, g, h = triple.components()
    return (
        h.partial("y") - g.partial("z"),
        f.partial("z") - h.partial("x"),
        g.partial("x") - f.partial("y"),
    )


def is_poisson_triple(triple: PoissonTriple) -> Check:
    """Jacobi test: (f, g, h) . curl(f, g, h) must vanish.

    The residue is -1 times the Jacobi sum on (x, y, z), so a zero
    residue certifies the bracket and a nonzero one is the obstruction;
    it is kept on success too, and the witness of a failure is the
    coordinate triple.
    """
    c = curl(triple)
    residual = sum((a * b for a, b in zip(triple.components(), c)), Poly.zero(TRIPLE_RING))
    return Check(not residual, TRIPLE_RING if residual else None, residual)


class DeltaBracket:
    """The bracket on A[z] with {z, a} = d(a) and {a, b} = 0 for a, b in A."""

    __slots__ = ("delta", "base_ring", "bracket_ring")

    def __init__(self, delta: Derivation):
        if "z" in delta.ring:
            raise NotPoissonError("the base ring of a DeltaBracket cannot contain z")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "base_ring", delta.ring)
        object.__setattr__(self, "bracket_ring", delta.ring + ("z",))

    def __setattr__(self, name, value):
        raise AttributeError("DeltaBracket is immutable")

    @property
    def ring(self) -> tuple[str, ...]:
        return self.bracket_ring

    def bracket(self, p: Poly, q: Poly) -> Poly:
        """Bilinear extension of {a z^m, b z^n} = (m a d(b) - n b d(a)) z^(m+n-1)."""
        p = p.embed(self.bracket_ring)
        q = q.embed(self.bracket_ring)
        ps = p.strata("z")
        qs = q.strata("z")
        dps = {m: self.delta.apply(a) for m, a in ps.items()}
        dqs = {n: self.delta.apply(b) for n, b in qs.items()}
        strata: dict[int, Poly] = {}
        for m, a in ps.items():
            for n, b in qs.items():
                if m == 0 and n == 0:
                    continue
                lead = a * dqs[n] * m - b * dps[m] * n
                k = m + n - 1
                strata[k] = strata.get(k, Poly.zero(self.base_ring)) + lead
        return Poly.from_strata(self.bracket_ring, "z", strata)

    def as_triple(self) -> PoissonTriple:
        """The same bracket as a triple; needs base ring inside (x, y)."""
        for v in self.base_ring:
            if v not in ("x", "y"):
                raise NotPoissonError(f"no triple form over base variable {v!r}")
        zero = Poly.zero(TRIPLE_RING)
        dx = self.delta.images.get("x", zero).embed(TRIPLE_RING)
        dy = self.delta.images.get("y", zero).embed(TRIPLE_RING)
        return PoissonTriple(-dy, dx, zero)

    def __repr__(self):
        return f"<z-bracket of {self.delta!r}>"


def hamiltonian(structure, a: Poly) -> Derivation:
    """The derivation {a, -} of the bracket ring."""
    ring = structure.ring
    a = a.embed(ring)
    images = {v: structure.bracket(a, Poly.var(ring, v)) for v in ring}
    return Derivation(ring, images)


def exact_triple(a: Poly, b: Poly | int = 1) -> PoissonTriple:
    """The triple (b*a_x, b*a_y, b*a_z), always a Poisson structure."""
    a = a.embed(TRIPLE_RING)
    if isinstance(b, int):
        b = Poly.constant(TRIPLE_RING, b)
    b = b.embed(TRIPLE_RING)
    return PoissonTriple(
        b * a.partial("x"), b * a.partial("y"), b * a.partial("z")
    )


@dataclass(frozen=True)
class FGDecomposition:
    common: Poly  # h, monic unless forced by the g = 0 convention
    f_cofactor: Poly  # z-free
    g_cofactor: Poly  # z-free


def decompose_fg0(f: Poly, g: Poly) -> FGDecomposition | None:
    """Split a Poisson triple (f, g, 0) as f = h*f1, g = h*g1 with f1, g1 z-free.

    Returns None when (f, g, 0) is not Poisson, i.e. f*g_z != g*f_z.
    Conventions for g = 0: h = 1 when f is z-free, else h = f.
    """
    f = f.embed(TRIPLE_RING)
    g = g.embed(TRIPLE_RING)
    if f * g.partial("z") != g * f.partial("z"):
        return None
    one = Poly.one(TRIPLE_RING)
    zero = Poly.zero(TRIPLE_RING)
    if f.is_zero() and g.is_zero():
        return FGDecomposition(one, zero, zero)
    if g.is_zero():
        if not f.uses("z"):
            return FGDecomposition(one, f, zero)
        return FGDecomposition(f, one, zero)
    h = gcd_poly(f, g)
    f1 = exact_divide(f, h)
    g1 = exact_divide(g, h)
    if f1 is None or g1 is None or f1.uses("z") or g1.uses("z"):
        raise ArithmeticError("cofactors escaped the z-free subring")
    return FGDecomposition(h, f1, g1)


def jacobi_sum(structure, p: Poly, q: Poly, r: Poly) -> Poly:
    """{p,{q,r}} + {q,{r,p}} + {r,{p,q}}."""
    b = structure.bracket
    return b(p, b(q, r)) + b(q, b(r, p)) + b(r, b(p, q))


def is_poisson_ideal(structure, ideal: IdealPres) -> Check:
    """Whether {B, I} is contained in I, checked on generator pairs.

    Both bracket slots are derivations, so vanishing of the normal form
    of {v, g} for ring variables v and ideal generators g decides the
    full condition; the witness of a failure is the pair (v, g).
    """
    ring = structure.ring
    return ideal.contains_all(
        ((v, g), structure.bracket(Poly.var(ring, v), g))
        for v in ring
        for g in ideal.generators
    )


def is_residually_null(structure, ideal: IdealPres) -> Check:
    """Whether the induced bracket on B/I is zero; the witness is a variable pair.

    Non-Poisson ideals are a caller error and raise NotPoissonError.
    """
    check = is_poisson_ideal(structure, ideal)
    if not check:
        v, g = check.witness
        raise NotPoissonError(
            f"not a Poisson ideal: {{{v}, {g!r}}} reduces to {check.residue!r}"
        )
    ring = structure.ring
    return ideal.contains_all(
        ((v, w), structure.bracket(Poly.var(ring, v), Poly.var(ring, w)))
        for i, v in enumerate(ring)
        for w in ring[i + 1 :]
    )


def commutator_ideal(structure) -> IdealPres:
    """The ideal generated by all brackets, i.e. by the generator brackets."""
    ring = structure.ring
    gens = []
    for i, v in enumerate(ring):
        for w in ring[i + 1 :]:
            b = structure.bracket(Poly.var(ring, v), Poly.var(ring, w))
            if b:
                gens.append(b)
    return IdealPres(ring, gens)
