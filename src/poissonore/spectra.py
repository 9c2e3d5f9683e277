"""Stable ideals, Darboux polynomials, and prime spectra for z-brackets.

Everything here is exact over QQ(i).  Searches are degree-bounded and
say so in their results; an infinite solution family surfaces as
SolutionFamily instead of a truncated answer.  Every bounded search
(Darboux strata, factor splits, preimages under delta, Shamsuddin's r)
matches coefficients in a system from one builder, _coefficient_system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .deriv import Derivation, exact_derivation, is_delta_ideal
from .poisson import DeltaBracket, PoissonTriple, is_poisson_ideal
from .polycore import (
    GaussRat,
    IdealPres,
    ONE,
    Poly,
    SolutionFamily,
    ZERO,
    exact_divide,
    render_coeff,
    solve_linear,
    solve_system,
)
from .polycore.poly import GREVLEX, BlockElim, Expvec, fresh_names, render

DEFAULT_SAMPLES: tuple[GaussRat, ...] = (
    GaussRat.coerce(0),
    GaussRat.coerce(1),
    GaussRat.coerce(-2),
)


# -- monomial enumeration ----------------------------------------------------


def monomials_of_degree(nvars: int, d: int) -> list[Expvec]:
    """Exponent vectors of total degree d, grevlex-descending.

    Within one degree grevlex descends by ascending last exponent, then
    by the same rule on the remaining variables.
    """
    if nvars == 0:
        return [()] if d == 0 else []
    return [e + (k,) for k in range(d + 1) for e in monomials_of_degree(nvars - 1, d - k)]


def monomials_upto(nvars: int, dmax: int) -> list[Expvec]:
    """Exponent vectors of total degree <= dmax, grevlex-descending."""
    return [e for d in range(dmax, -1, -1) for e in monomials_of_degree(nvars, d)]


# -- unknown-coefficient systems ------------------------------------------------


@dataclass(frozen=True)
class EquationSystem:
    """Templates with unknown coefficients, matched monomial by monomial.

    Each template is lead + sum of unknown * monomial over its support;
    the unknowns are numbered along the supports, template by template.
    Each equation is the coefficient of one base-ring monomial of the
    identity the templates must satisfy, in descending grevlex order.
    """

    base_ring: tuple[str, ...]
    unknown_ring: tuple[str, ...]
    shapes: tuple[tuple[Expvec | None, tuple[Expvec, ...]], ...]
    equations: tuple[tuple[Expvec, Poly], ...]

    def solve(self) -> list[dict[str, GaussRat]]:
        return solve_system([eq for _, eq in self.equations], self.unknown_ring)

    def solve_affine(self) -> dict[str, GaussRat] | None:
        """One solution of an affine system, free unknowns set to zero, or None."""
        eqs = [eq for _, eq in self.equations]
        if any(eq.total_degree() > 1 for eq in eqs):
            raise ValueError("system is not affine in its unknowns")
        m = len(self.unknown_ring)
        units = [(0,) * k + (1,) + (0,) * (m - k - 1) for k in range(m)]
        rows = [[eq.terms.get(u, ZERO) for u in units] for eq in eqs]
        rhs = [-eq.terms.get((0,) * m, ZERO) for eq in eqs]
        values = solve_linear(rows, rhs)
        if values is None:
            return None
        return dict(zip(self.unknown_ring, values or [ZERO] * m))

    def instantiate(self, assignment: dict[str, GaussRat]) -> tuple[Poly, ...]:
        """The templates over the base ring, one per shape."""
        names = iter(self.unknown_ring)
        out = []
        for lead, support in self.shapes:
            terms = {} if lead is None else {lead: ONE}
            for e in support:
                terms[e] = assignment[next(names)]
            out.append(Poly(self.base_ring, terms))
        return tuple(out)


def _coefficient_system(
    base: tuple[str, ...],
    shapes: list[tuple[str, Expvec | None, list[Expvec]]],
    identity,
) -> EquationSystem:
    """The system saying identity(*templates) = 0, one template per shape.

    A shape (prefix, lead, support) gives the template lead + sum of
    prefix<k> * support[k], its unknowns renamed around the base ring;
    identity maps the templates, over the base ring plus the unknowns,
    to the polynomial that must vanish.
    """
    n = len(base)
    unknowns = fresh_names(
        base, [f"{prefix}{k}" for prefix, _, support in shapes for k in range(len(support))]
    )
    m = len(unknowns)
    templates = []
    k = 0
    for _, lead, support in shapes:
        terms = {} if lead is None else {lead + (0,) * m: ONE}
        for e in support:
            terms[e + (0,) * k + (1,) + (0,) * (m - k - 1)] = ONE
            k += 1
        templates.append(Poly(base + unknowns, terms))
    grouped: dict[Expvec, dict[Expvec, GaussRat]] = {}
    for e, c in identity(*templates).terms.items():
        grouped.setdefault(e[:n], {})[e[n:]] = c
    equations = sorted(grouped.items(), key=lambda kv: GREVLEX.key(kv[0]), reverse=True)
    return EquationSystem(
        base,
        unknowns,
        tuple((lead, tuple(support)) for _, lead, support in shapes),
        tuple((e, Poly(unknowns, t)) for e, t in equations),
    )


def _preimage(base: tuple[str, ...], support: list[Expvec], identity) -> Poly | None:
    """p on the support with identity(p) = 0, or None; identity is affine in p.

    Free coefficients are set to zero, and the answer is rechecked.
    """
    system = _coefficient_system(base, [("u", None, support)], identity)
    assignment = system.solve_affine()
    if assignment is None:
        return None
    (p,) = system.instantiate(assignment)
    if identity(p):
        raise ArithmeticError("linear solve verification failed")
    return p


def _cofactor_identity(delta: Derivation):
    """delta(q) - w*q, the identity of a Darboux polynomial q with cofactor w."""
    n = len(delta.ring)
    return lambda q, w: delta.extend_zero(*q.ring[n:]).apply(q) - w * q


def _single_exponent(m: Poly) -> Expvec:
    if len(m.terms) != 1:
        raise ValueError(f"not a monomial: {m}")
    return next(iter(m.terms))


def invariance_equations(
    delta: Derivation,
    q_support: list[Poly],
    cofactor_support: list[Poly],
    lead: Poly | None = None,
) -> EquationSystem:
    """delta(q) = w*q with unknown coefficients on the given supports.

    q and the cofactor w carry the unknowns u0, u1, ... and w0, w1, ...
    along their supports, descending; instantiate gives (q, w).  Without
    a lead monomial the scaling freedom of q usually makes the solution
    set infinite; pass lead to pin its coefficient to one.
    """
    def exps(support: list[Poly]) -> list[Expvec]:
        return sorted({_single_exponent(m) for m in support}, key=GREVLEX.key, reverse=True)

    lead_exp = None if lead is None else _single_exponent(lead)
    q_exps = [e for e in exps(q_support) if e != lead_exp]
    return _coefficient_system(
        delta.ring,
        [("u", lead_exp, q_exps), ("w", None, exps(cofactor_support))],
        _cofactor_identity(delta),
    )


# -- Darboux search ------------------------------------------------------------


@dataclass(frozen=True)
class DarbouxCertificate:
    q: Poly
    cofactor: Poly


def verify_cofactor(delta: Derivation, q: Poly) -> Poly | None:
    """The cofactor delta(q)/q when the division is exact, else None."""
    if q.is_zero():
        raise ValueError("zero polynomial is not a Darboux candidate")
    return exact_divide(delta.apply(q.embed(delta.ring)), q.embed(delta.ring))


def darboux_search(delta: Derivation, dmax: int) -> list[DarbouxCertificate]:
    """All monic Darboux polynomials of total degree 1..dmax.

    Every candidate is normalized monic at its leading monomial, so each
    stratum (degree, leading monomial) is searched once; the cofactor
    degree is capped by max image degree - 1, which is forced by degree
    count.  Raises SolutionFamily when a stratum carries infinitely many
    solutions.
    """
    if dmax < 0:
        raise ValueError(f"negative degree bound {dmax}")
    base = delta.ring
    n = len(base)
    wd = max(delta.max_image_degree() - 1, 0)
    w_exps = monomials_upto(n, wd)
    identity = _cofactor_identity(delta)
    found: list[DarbouxCertificate] = []
    for d in range(1, dmax + 1):
        lower = monomials_upto(n, d)
        for lm in monomials_of_degree(n, d):
            support = [e for e in lower if GREVLEX.key(e) < GREVLEX.key(lm)]
            system = _coefficient_system(
                base, [("u", lm, support), ("w", None, w_exps)], identity
            )
            try:
                solutions = system.solve()
            except SolutionFamily as fam:
                lm_poly = Poly(base, {lm: GaussRat.coerce(1)})
                raise SolutionFamily(
                    f"darboux stratum with leading monomial {render(lm_poly)}: {fam}"
                ) from fam
            for sol in solutions:
                q, w = system.instantiate(sol)
                check = verify_cofactor(delta, q)
                if check != w:
                    raise ArithmeticError(f"cofactor mismatch for {render(q)}")
                found.append(DarbouxCertificate(q, w))
    return found


# -- singular locus -------------------------------------------------------------


@dataclass(frozen=True)
class SingularLocus:
    ideal: IdealPres
    points: tuple[dict[str, GaussRat], ...]
    resolved: bool


def singular_locus(structure) -> SingularLocus:
    """Common zero locus of all generator brackets.

    Accepts a z-bracket (vanishing of both derivation images) or a
    bracket triple (vanishing of all three components).
    """
    if isinstance(structure, DeltaBracket):
        structure = structure.delta
    if isinstance(structure, Derivation):
        ring = structure.ring
        gens = [structure.image(v) for v in ring]
    elif isinstance(structure, PoissonTriple):
        ring = structure.ring
        gens = [structure.f, structure.g, structure.h]
    else:
        raise TypeError(f"no singular locus for {type(structure).__name__}")
    ideal = IdealPres(ring, gens)
    try:
        points = solve_system([g for g in gens if g], ring)
    except SolutionFamily:
        return SingularLocus(ideal, (), False)
    return SingularLocus(ideal, tuple(points), True)


# -- largest stable subideal -----------------------------------------------------


@dataclass(frozen=True)
class CoreResult:
    core: IdealPres
    exact: bool
    iterations: int


def _stable_step(ideal: IdealPres, delta: Derivation) -> IdealPres:
    """{a in I : delta(a) in I} by eliminating the graph of a -> a + t*delta(a).

    Membership of a + t*delta(a) in (I, t^2) over the t-extended ring is
    exactly membership of both a and delta(a) in I, since the map is a
    ring morphism modulo t^2.
    """
    base = ideal.ring
    names = fresh_names(base, ["t"] + [v + "__out" for v in base])
    outs = names[1:]
    big = base + names
    head = len(base) + 1
    t = Poly.var(big, names[0])
    gens = [g.embed(big) for g in ideal.generators]
    gens.append(t * t)
    for v, out in zip(base, outs):
        gens.append(Poly.var(big, out) - Poly.var(big, v) - t * delta.image(v).embed(big))
    basis = IdealPres(big, gens).basis(BlockElim(head))
    keep_names = set(outs)
    kept = [
        Poly(base, g.embed(outs).terms)
        for g in basis
        if set(g.used_vars()) <= keep_names
    ]
    return IdealPres(base, kept)


def delta_core(ideal: IdealPres, delta: Derivation, max_iter: int = 8) -> CoreResult:
    """Largest delta-stable ideal inside the given one.

    Iterates I -> {a in I : delta(a) in I}.  A fixed point is stable and
    contains every stable subideal of I, so it is the core; the chain
    can strictly descend forever, in which case the last iterate is an
    upper bound and exact is False.
    """
    if max_iter < 0:
        raise ValueError(f"negative iteration bound {max_iter}")
    current = ideal
    for k in range(1, max_iter + 1):
        nxt = _stable_step(current, delta)
        if nxt.same_ideal(current):
            return CoreResult(current, True, k)
        current = nxt
    return CoreResult(current, False, max_iter)


# -- simplicity of y' = a y + b extensions ------------------------------------------


@dataclass(frozen=True)
class ShamsuddinVerdict:
    simple: bool
    witness: Poly | None
    bound: int
    reason: str

    def __bool__(self) -> bool:
        return self.simple


def shamsuddin_simple(a: Poly, b: Poly, c: Poly | None = None) -> ShamsuddinVerdict:
    """Simplicity of the extension with x' = c and y' = a*y + b over k[x].

    The extension fails to be simple exactly when some r in k[x] solves
    c*r' = a*r + b (then y - r spans a stable ideal), or when c is
    nonconstant (then (c) itself is stable downstairs).  The solve is a
    bounded linear system; the bound covers every possible degree of r
    by comparing leading terms of c*r' and a*r.
    """
    ring = a.ring
    if len(ring) != 1:
        raise ValueError("coefficients must be univariate")
    if c is None:
        c = Poly.one(ring)
    b, c = b.embed(ring), c.embed(ring)
    if c.is_zero():
        raise ValueError("c must be nonzero")

    da, db, dc = a.total_degree(), b.total_degree(), c.total_degree()
    candidates = [0]
    if da >= 0:
        candidates.append(db - da)
        if dc - 1 == da:
            ratio = a.leading_coeff() / c.leading_coeff()
            if not ratio.b and ratio.d == 1 and ratio.a > 0:
                candidates.append(ratio.a)
    candidates.append(db - dc + 1)
    bound = max(candidates)

    x = ring[0]
    witness = _preimage(
        ring,
        [(j,) for j in range(bound + 1)],
        lambda r: c.embed(r.ring) * r.partial(x) - a.embed(r.ring) * r - b.embed(r.ring),
    )

    if dc >= 1:
        return ShamsuddinVerdict(False, witness, bound, "nonconstant c leaves (c) stable")
    if witness is None:
        return ShamsuddinVerdict(True, None, bound, "no polynomial r solves c*r' = a*r + b")
    return ShamsuddinVerdict(False, witness, bound, "y - r spans a stable ideal")


# -- membership of the image ----------------------------------------------------------


def image_solvable(delta: Derivation, target: Poly, dmax: int) -> Poly | None:
    """A polynomial p of degree <= dmax with delta(p) = target, or None."""
    if dmax < 0:
        raise ValueError(f"negative degree bound {dmax}")
    ring = delta.ring
    target = target.embed(ring)
    return _preimage(
        ring,
        monomials_upto(len(ring), dmax),
        lambda p: delta.extend_zero(*p.ring[len(ring):]).apply(p) - target.embed(p.ring),
    )


# -- factorization over QQ(i) -----------------------------------------------------------


def factorizations(q: Poly) -> list[tuple[Poly, Poly]]:
    """All splittings of monic(q) into two monic nonconstant factors.

    The leading monomial of a factor divides the leading monomial of q,
    so candidate supports are enumerated per leading-monomial divisor
    and the bilinear coefficient system is solved exactly.  An empty
    answer is a certificate of irreducibility over QQ(i).
    """
    if q.total_degree() < 1:
        raise ValueError("nothing to factor")
    q = q.monic()
    d = q.total_degree()
    if d == 1:
        return []
    n = len(q.ring)
    E = q.leading_monomial()
    pairs: dict[tuple[str, str], tuple[Poly, Poly]] = {}
    for eu in itertools.product(*(range(x + 1) for x in E)):
        ev = tuple(a - b for a, b in zip(E, eu))
        du, dv = sum(eu), sum(ev)
        if du < 1 or dv < 1 or GREVLEX.key(eu) > GREVLEX.key(ev):
            continue
        u_sup = [e for e in monomials_upto(n, du) if GREVLEX.key(e) < GREVLEX.key(eu)]
        v_sup = [e for e in monomials_upto(n, dv) if GREVLEX.key(e) < GREVLEX.key(ev)]
        system = _coefficient_system(
            q.ring, [("u", eu, u_sup), ("v", ev, v_sup)], lambda u, v: u * v - q.embed(u.ring)
        )
        for sol in system.solve():
            fu, fv = system.instantiate(sol)
            if fu * fv != q:
                raise ArithmeticError("factor verification failed")
            first, second = sorted((fu, fv), key=lambda p: (p.total_degree(), render(p)))
            key = (render(first), render(second))
            pairs.setdefault(key, (first, second))
    return [pairs[k] for k in sorted(pairs)]


def irreducible_factors(q: Poly) -> tuple[GaussRat, tuple[Poly, ...]]:
    """Monic irreducible factors with multiplicity, and the scalar content."""
    if q.total_degree() < 1:
        raise ValueError("nothing to factor")
    content = q.leading_coeff()

    def split(p: Poly) -> list[Poly]:
        found = factorizations(p)
        if not found:
            return [p.monic()]
        u, v = found[0]
        return split(u) + split(v)

    factors = sorted(split(q), key=lambda p: (p.total_degree(), render(p)))
    return content, tuple(factors)


def is_irreducible(q: Poly) -> bool:
    return q.total_degree() >= 1 and not factorizations(q)


# -- spectra ------------------------------------------------------------------------------


# Each kind's rank in the entry order and its JSON kind.  Residually-null
# entries (the ones containing every image of the derivation) are type1;
# extensions of delta-primes, zero included, are type2.
_KINDS = {
    "zero": (0, "type2"),
    "principal": (1, "type2"),
    "principal-family": (2, "type2"),
    "point": (3, "type1"),
    "point-fiber": (4, "type1"),
}


@dataclass(frozen=True)
class SpectrumEntry:
    kind: str
    ring: tuple[str, ...]
    generators: tuple[Poly, ...]
    parameters: tuple[str, ...] = ()
    certificates: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()

    def generator_strings(self) -> tuple[str, ...]:
        return tuple(render(g) for g in self.generators)

    def instances(self) -> list[tuple[Poly, ...]]:
        """Generator tuples with every parameter replaced by sample values."""
        if not self.parameters:
            return [self.generators]
        out = []
        for values in itertools.product(DEFAULT_SAMPLES, repeat=len(self.parameters)):
            gens = []
            for g in self.generators:
                for name, val in zip(self.parameters, values):
                    g = g.substitute(name, val) if name in g.ring else g
                gens.append(g)
            out.append(tuple(gens))
        return out

    def sort_key(self) -> tuple:
        return (_KINDS.get(self.kind, (9,))[0], len(self.generators), self.generator_strings())

    def to_json_dict(self) -> dict:
        certs = [{"name": "shape", "value": self.kind}]
        certs.extend({"name": k, "value": v} for k, v in self.certificates)
        certs.extend({"name": "note", "value": n} for n in self.notes)
        return {
            "kind": _KINDS[self.kind][1],
            "generators": list(self.generator_strings()),
            "parameters": self.parameters[0] if self.parameters else None,
            "certificates": certs,
        }


@dataclass(frozen=True)
class SpectrumDescription:
    side: str
    completeness: str
    entries: tuple[SpectrumEntry, ...]
    degree_bound: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "completeness": self.completeness,
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def render_text(self) -> str:
        lines = [f"side: {self.side}", f"completeness: {self.completeness}"]
        if self.degree_bound is not None:
            lines.append(f"degree bound: {self.degree_bound}")
        for e in self.entries:
            gens = ", ".join(e.generator_strings()) or "0"
            lines.append(f"  [{e.kind}] ({gens})")
            if e.parameters:
                lines.append(f"    parameters: {', '.join(e.parameters)}")
            for k, v in e.certificates:
                lines.append(f"    {k}: {v}")
            for note in e.notes:
                lines.append(f"    note: {note}")
        return "\n".join(lines)


def _refuse_clashes(ring: tuple[str, ...], added: tuple[str, ...]) -> None:
    """Raise ValueError when the base ring already uses a name the entries add."""
    clash = [v for v in added if v in ring]
    if clash:
        raise ValueError(f"base ring uses {', '.join(clash)}, which the spectrum entries add")


def _point_entries(ring: tuple[str, ...], locus: SingularLocus) -> list[SpectrumEntry]:
    out = []
    fiber_ring = ring + ("z", "alpha")
    cert = (("vanishing-ideal-basis", "; ".join(locus.ideal.basis_strings())),)
    for pt in locus.points:
        gens = tuple(Poly.var(ring, v) - Poly.constant(ring, pt[v]) for v in ring)
        out.append(SpectrumEntry("point", ring, gens, (), cert))
        fgens = tuple(g.embed(fiber_ring) for g in gens) + (
            Poly.var(fiber_ring, "z") - Poly.var(fiber_ring, "alpha"),
        )
        out.append(
            SpectrumEntry(
                "point-fiber",
                fiber_ring,
                fgens,
                ("alpha",),
                cert,
            )
        )
    return out


def classify_delta_spectrum(delta: Derivation, dmax: int) -> SpectrumDescription:
    """Prime z-stable spectrum of the skew extension by delta, degree-bounded.

    Height-one entries come from monic irreducible Darboux polynomials
    of degree <= dmax; the rest come from the singular locus.  The zero
    derivation is refused: its stable ideals are all ideals and a
    degree-bounded list would be meaningless.
    """
    if delta.is_zero():
        raise ValueError("zero derivation has no bounded classification")
    ring = delta.ring
    _refuse_clashes(ring, ("z", "alpha"))
    entries = [SpectrumEntry("zero", ring, ())]
    notes: list[str] = []
    completeness = f"height-one entries complete through degree {dmax}"
    try:
        certs = darboux_search(delta, dmax)
    except SolutionFamily as fam:
        certs = []
        completeness = "height-one entries unresolved"
        notes.append(f"darboux search hit an infinite family: {fam}")
    for cert in certs:
        if not is_irreducible(cert.q):
            continue
        if all(exact_divide(delta.image(v), cert.q) is not None for v in ring):
            notes.append(f"{render(cert.q)} divides every image; skipped")
            continue
        entries.append(
            SpectrumEntry(
                "principal",
                ring,
                (cert.q,),
                (),
                (
                    ("cofactor", render(cert.cofactor)),
                    ("irreducible", "no splitting over QQ(i)"),
                ),
            )
        )
    locus = singular_locus(delta)
    if locus.resolved:
        entries.extend(_point_entries(ring, locus))
    else:
        notes.append("singular locus is positive-dimensional; point entries unresolved")
    if notes:
        completeness += "; " + "; ".join(notes)
    entries.sort(key=SpectrumEntry.sort_key)
    return SpectrumDescription("ore", completeness, tuple(entries), dmax)


def classify_exact_spectrum(a: Poly) -> SpectrumDescription:
    """Poisson-prime spectrum for the exact bracket with potential a(x, y).

    The potential is a central element, so height-one primes are the
    irreducible factors of a - lambda; this classification is complete,
    with fiber factorizations spelled out at the sampled lambda values
    and kept symbolic elsewhere.
    """
    ring = a.ring
    _refuse_clashes(ring, ("z", "alpha", "lambda"))
    if a.total_degree() < 1:
        raise ValueError("constant potential gives the zero bracket")
    delta = exact_derivation(a)
    if delta.apply(a):
        raise ArithmeticError("potential is not conserved")

    lam_ring = ring + ("lambda",)
    entries = [SpectrumEntry("zero", ring, ())]
    entries.append(
        SpectrumEntry(
            "principal-family",
            lam_ring,
            (a.embed(lam_ring) - Poly.var(lam_ring, "lambda"),),
            ("lambda",),
            (("cofactor", "0"),),
            ("prime exactly when the fiber polynomial is irreducible",),
        )
    )
    for lam in DEFAULT_SAMPLES:
        fiber = a - Poly.constant(ring, lam)
        if fiber.total_degree() < 1:
            continue
        _, factors = irreducible_factors(fiber)
        for q in dict.fromkeys(factors):
            cof = verify_cofactor(delta, q)
            if cof is None:
                raise ArithmeticError(f"fiber factor {render(q)} is not stable")
            entries.append(
                SpectrumEntry(
                    "principal",
                    ring,
                    (q,),
                    (),
                    (
                        ("cofactor", render(cof)),
                        ("fiber", render_coeff(lam)),
                        ("irreducible", "no splitting over QQ(i)"),
                    ),
                )
            )
    locus = singular_locus(delta)
    completeness = "complete; fiber factorizations spelled out at sampled levels"
    if locus.resolved:
        entries.extend(_point_entries(ring, locus))
    else:
        completeness = "point entries unresolved (positive-dimensional critical locus)"
    entries.sort(key=SpectrumEntry.sort_key)
    return SpectrumDescription("poisson", completeness, tuple(entries), None)


# -- moving between the two sides ------------------------------------------------------


def gamma_map(desc: SpectrumDescription, delta: Derivation) -> SpectrumDescription:
    """Transport a spectrum to the other side, reverifying every entry.

    The generators are carried over unchanged; what changes is the
    stability notion that gets checked on each sampled instance
    (bracket-closure on the commutative side, twist-stability on the
    skew side).
    """
    if desc.side not in ("poisson", "ore"):
        raise ValueError(f"unknown side {desc.side!r}")
    target = "ore" if desc.side == "poisson" else "poisson"
    db = DeltaBracket(delta)
    bracket_ring = db.bracket_ring
    dz = delta.extend_zero("z")
    verified = "twist-stability" if target == "ore" else "bracket-closure"
    out = []
    for entry in desc.entries:
        for gens in entry.instances():
            ideal = IdealPres(bracket_ring, gens)
            if target == "ore":
                check = is_delta_ideal(ideal, dz)
            else:
                check = is_poisson_ideal(db, ideal)
            if not check:
                raise ArithmeticError(
                    f"{entry.kind} entry fails {verified}: {check.witness!r} "
                    f"leaves the residue {check.residue!r}"
                )
        out.append(
            replace(entry, certificates=entry.certificates + (("transport-check", verified),))
        )
    return SpectrumDescription(target, desc.completeness, tuple(out), desc.degree_bound)


def spectrum_inclusions(
    desc: SpectrumDescription, base_ring: tuple[str, ...]
) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) with entry i strictly inside entry j on all sampled instances."""
    bracket_ring = base_ring + ("z",)
    instantiated = [
        [IdealPres(bracket_ring, gens) for gens in e.instances()]
        for e in desc.entries
    ]
    out = []
    for i, row_i in enumerate(instantiated):
        for j, row_j in enumerate(instantiated):
            if i == j:
                continue
            if all(
                ij.contains_ideal(ii) and not ii.contains_ideal(ij)
                for ii in row_i
                for ij in row_j
            ):
                out.append((i, j))
    return tuple(out)
