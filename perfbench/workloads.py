"""The benchmark's three workloads, built from a seed.

A workload is one pass of tasks; a run repeats the pass.  Every task has
a timed `run`, which calls the package and returns its verdict, and an
untimed `check`, which compares that verdict with a reference that does
not come from the code path under test: the golden CLI JSON, the
registry's expected spectra, sympy's stable-curve sets
(data/classify_refs.json), linear-algebra membership, a planted common
zero, or an independent bracket or product expansion.

Why these three (see README.md for the predictions):

- classify: Darboux search and prime-spectrum classification, the
  paper's headline question.  Lex Groebner, the solver and spectra;
  heavy tail; the undecided tasks live here.
- algebra: bulk exact arithmetic on both sides of the correspondence
  (brackets, Ore products, the semiclassical limit, (f, g, 0) splits);
  no ideal computations, so Groebner and solver changes leave it alone.
- ideals: grevlex and block-elimination bases of consistent ideals that
  many normal-form queries reuse; stable cores and transport.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from common import BASE, DATA_DIR, ROOT, rand_poly

from poissonore import (
    DeltaBracket,
    Derivation,
    GaussRat,
    IdealPres,
    Poly,
    SkewPoly,
    TRIPLE_RING,
    classify_delta_spectrum,
    classify_exact_spectrum,
    commutator,
    decompose_fg0,
    delta_core,
    derivation,
    gamma_map,
    jacobi_sum,
    load_registry,
    parse_poly,
    quantize,
    render,
    semiclassical_bracket,
    spectrum_inclusions,
)
from poissonore import cli

GOLDEN_DIR = ROOT / "tests" / "golden"
REFS_FILE = DATA_DIR / "classify_refs.json"
IDEALS_REFS_FILE = DATA_DIR / "ideals_refs.json"

# Per-task limits.  Each sits in a gap of the task-time distribution at
# the baseline commit, so that the undecided count repeats run to run:
# classify's decided tasks take <= 2.4 s and the next ones >= 4 s; the
# ideals' stable steps <= 0.94 s and the next ones >= 2.4 s.
LIMITS = {"classify": 3.0, "algebra": 10.0, "ideals": 2.0}

# the ROADMAP's defect inputs, run through the darboux subcommand
DEFECTS = {
    "coutinho-2@3": ("x=1,y=x^2+x*y+y^2", 3),
    "new@6": ("x=y,y=x+x^2*y", 6),
}

# classify strata, by frozen baseline time of each pool draw
FAST_S = 0.25
HARD_DRAWS = 2  # hard draws per pass; each one costs the full limit
HARD_CORES = 1


# The package's one resource cap (polycore/solve.py).  Every other
# ArithmeticError comes from a failed self-check, so it fails the task.
RESOURCE_CAP = "root candidate search space too large"


class Undecided(Exception):
    """The package gave up on a resource cap instead of answering."""


def gave_up(exc: BaseException) -> bool:
    """Whether exc is the package giving up on its resource cap."""
    return isinstance(exc, Undecided) or (type(exc) is ArithmeticError and str(exc) == RESOURCE_CAP)


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the verdict is right


@dataclass
class Workload:
    name: str
    seed: int
    limit_s: float
    tasks: list[Task] = field(default_factory=list)


# -- helpers --------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """poissonore.cli.main in process, with stdout and stderr captured.

    The CLI maps every ArithmeticError to "verification failure".  Only
    the resource cap counts as undecided; any other such exit is returned
    as it is, and its check fails.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 1 and not out.getvalue() and err.getvalue() == f"verification failure: {RESOURCE_CAP}\n":
        raise Undecided(RESOURCE_CAP)
    return rc, out.getvalue()


def _shape(entry: dict) -> str:
    return next(c["value"] for c in entry["certificates"] if c["name"] == "shape")


def check_spectrum(spectrum: dict, ref: dict) -> str | None:
    """Compare a spectrum JSON dict with a sympy stable-curve reference."""
    entries = spectrum["entries"]
    principal = sorted(e["generators"][0] for e in entries if _shape(e) == "principal")
    points = sorted(e["generators"] for e in entries if _shape(e) == "point")
    completeness = spectrum["completeness"]
    if ref["family"]:
        if not completeness.startswith("height-one entries unresolved") or principal:
            return f"reference has an infinite family, got {completeness!r} {principal}"
    elif principal != ref["principal"]:
        return f"principal entries {principal} != reference {ref['principal']}"
    if ref["points"] is None:
        if "point entries unresolved" not in completeness or points:
            return f"reference locus is a curve, got {completeness!r} {points}"
    elif points != ref["points"]:
        return f"points {points} != reference {ref['points']}"
    return None


def _golden(name: str) -> str | None:
    path = GOLDEN_DIR / f"{name}.json"
    return path.read_text() if path.exists() else None


# -- classify ------------------------------------------------------------------


def _example_task(cfg, ref: dict | None) -> Task:
    def run():
        return _cli(["example", cfg.name, "--json"])

    def check(verdict):
        rc, out = verdict
        if rc != 0:
            return f"exit code {rc}"
        golden = _golden(cfg.name)
        if golden is not None and out != golden:
            return "stdout differs from the golden JSON"
        payload = json.loads(out)
        if cfg.expected is not None and payload["expected_reproduced"] is not True:
            return "expected spectrum not reproduced"
        if ref is not None:
            return check_spectrum(payload["spectrum"], ref)
        return None

    return Task(f"example:{cfg.name}", run, check)


def _darboux_task(name: str, spec: str, dmax: int, ref: dict | None) -> Task:
    def run():
        return _cli(["darboux", "--delta", spec, "--dmax", str(dmax), "--json"])

    def check(verdict):
        rc, out = verdict
        if rc != 0:
            return f"exit code {rc}"
        curves = sorted(c["q"] for c in json.loads(out)["certificates"])
        if ref is not None and curves != ref["curves"]:
            return f"curves {curves} != reference {ref['curves']}"
        return None

    return Task(f"darboux:{name}", run, check)


def _draw_task(entry: dict, delta: Derivation) -> Task:
    def run():
        return classify_delta_spectrum(delta, 2)

    def check(desc):
        return check_spectrum(desc.to_json_dict(), entry)

    return Task(f"classify:{entry['id']}", run, check)


def stratified(rng: random.Random, pool: list[dict], limit_s: float, hard: int) -> list[dict]:
    """Every slow entry, one of each adjacent pair of fast ones, `hard` hard ones.

    Entries carry their frozen baseline time (None: undecided).  Fast is
    under FAST_S, hard is over the limit.  The mix, and so the tail, is
    the same for every seed while the entries themselves change.
    """
    strata: dict[str, list[dict]] = {"fast": [], "slow": [], "hard": []}
    for entry in pool:
        t = entry["baseline_s"]
        strata["hard" if t is None or t > limit_s else "slow" if t >= FAST_S else "fast"].append(entry)
    fast = sorted(strata["fast"], key=lambda e: (e["baseline_s"], e["id"]))
    chosen = list(strata["slow"])
    chosen += [rng.choice(fast[i : i + 2]) for i in range(0, len(fast), 2)]
    chosen += rng.sample(strata["hard"], min(hard, len(strata["hard"])))
    return chosen


def build_classify(seed: int) -> Workload:
    """Registry examples, the two ROADMAP defects and seeded random draws.

    Random draws come from a pool with sympy references, by strata (see
    `stratified`), with HARD_DRAWS hard ones per pass.
    """
    rng = random.Random(seed)
    limit = LIMITS["classify"]
    refs = json.loads(REFS_FILE.read_text())
    wl = Workload("classify", seed, limit)
    for cfg in load_registry().values():
        if cfg.kind in ("delta", "exact"):
            wl.tasks.append(_example_task(cfg, refs["registry"].get(cfg.name)))
    for name, (spec, dmax) in DEFECTS.items():
        wl.tasks.append(_darboux_task(name, spec, dmax, refs["defects"].get(name)))
    for entry in stratified(rng, refs["draws"], limit, HARD_DRAWS):
        wl.tasks.append(_draw_task(entry, cli._delta_from_spec(entry["delta"])))
    rng.shuffle(wl.tasks)
    return wl


# -- algebra -------------------------------------------------------------------


def _delta(**images: str) -> Derivation:
    return derivation(BASE, **{v: parse_poly(s, BASE) for v, s in images.items()})


def _criterion_3_deltas() -> dict[str, Derivation]:
    return {
        "weyl": derivation(("x",), x=Poly.one(("x",))),
        "gwj": _delta(x="2*y", y="y^2 + x"),
        "ox": _delta(x="y^3", y="1 - x*y"),
    }


def _criterion_1_deltas() -> dict[str, Derivation]:
    return {
        "weyl": derivation(("x",), x=Poly.one(("x",))),
        "bergman": _delta(x="1", y="1 + x*y"),
        "bergman-m1": _delta(x="1", y="1 - x*y"),
        "bergman-2": _delta(x="1", y="1 + 2*x*y"),
        "ox": _delta(x="y^3", y="1 - x*y"),
        "log": _delta(x="x", y="1"),
        "coutinho-1": _delta(x="x*y + 2", y="-x^2 - x*y - 2"),
        "coutinho-2": _delta(x="1", y="x^2 + x*y + y^2"),
        "coutinho-3": _delta(x="x*y + 1", y="x"),
        "exact-circle": _delta(x="2*y", y="-2*x"),
    }


def bracket_by_bivector(delta: Derivation, p: Poly, q: Poly) -> Poly:
    from oracles import bracket_by_biderivation

    return bracket_by_biderivation(delta, p, q)


def ore_product_closed_form(delta: Derivation, a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Coefficients of (sum a_i z^i)(sum b_j z^j) by z^i b = sum C(i,k) d^k(b) z^(i-k).

    The package pushes z past coefficients one step at a time; this
    route uses the Leibniz closed form instead.
    """
    ring = delta.ring
    out: dict[int, Poly] = {}
    for j, bj in enumerate(b):
        powers = [bj]  # d^k(b_j)
        for _ in range(len(a) - 1):
            powers.append(delta.apply(powers[-1]))
        for i, ai in enumerate(a):
            if not ai:
                continue
            for k in range(i + 1):
                term = ai * powers[k] * comb(i, k)
                deg = i - k + j
                out[deg] = out.get(deg, Poly.zero(ring)) + term
    top = max((d for d, c in out.items() if c), default=-1)
    return [out.get(d, Poly.zero(ring)) for d in range(top + 1)]


def _rand_coeffs(rng: random.Random, ring: tuple[str, ...]) -> list[Poly]:
    return [rand_poly(rng, ring, 2, terms=2) for _ in range(4)]


def _semiclassical_task(ident: str, delta: Derivation, rng: random.Random) -> Task:
    twist = quantize(delta)
    a, b = _rand_coeffs(rng, delta.ring), _rand_coeffs(rng, delta.ring)
    u, v = SkewPoly(twist, a), SkewPoly(twist, b)
    bracket_ring = delta.ring + ("z",)
    z = Poly.var(bracket_ring, "z")

    def classical(coeffs):
        return sum((c.embed(bracket_ring) * z**k for k, c in enumerate(coeffs)), Poly.zero(bracket_ring))

    def check(sc):
        want = bracket_by_bivector(delta, classical(a), classical(b))
        return None if sc == want else "semiclassical bracket differs from the bivector expansion"

    return Task(ident, lambda: semiclassical_bracket(u, v), check)


def _ore_task(ident: str, delta: Derivation, rng: random.Random, bracket: bool) -> Task:
    u = SkewPoly(delta, _rand_coeffs(rng, delta.ring))
    v = SkewPoly(delta, _rand_coeffs(rng, delta.ring))

    def run():
        return commutator(u, v) if bracket else u * v

    def check(w):
        want = ore_product_closed_form(delta, list(u.coeffs), list(v.coeffs))
        if bracket:
            vu = ore_product_closed_form(delta, list(v.coeffs), list(u.coeffs))
            n = max(len(want), len(vu))
            zero = [Poly.zero(delta.ring)]
            want = [p - q for p, q in zip(want + zero * (n - len(want)), vu + zero * (n - len(vu)))]
        if w.coeffs != SkewPoly(delta, want).coeffs:
            return "Ore result differs from the Leibniz closed form"
        return None

    return Task(ident, run, check)


def _axioms_task(ident: str, delta: Derivation, rng: random.Random) -> Task:
    structure = DeltaBracket(delta)
    ring = structure.ring
    p, q, r = (rand_poly(rng, ring, 3, terms=3) for _ in range(3))

    def run():
        b = structure.bracket
        pq = b(p, q)
        return {
            "pq": pq,
            "antisymmetric": pq == -b(q, p),
            "leibniz": b(p, q * r) == pq * r + q * b(p, r),
            "jacobi": jacobi_sum(structure, p, q, r).is_zero(),
        }

    def check(v):
        if not (v["antisymmetric"] and v["leibniz"] and v["jacobi"]):
            return "a Poisson axiom failed on a Poisson structure"
        if v["pq"] != bracket_by_bivector(delta, p, q):
            return "bracket differs from the bivector expansion"
        return None

    return Task(ident, run, check)


def _decompose_task(ident: str, rng: random.Random) -> Task:
    while True:
        h = rand_poly(rng, TRIPLE_RING, 2, terms=3)
        f1 = rand_poly(rng, BASE, 2, terms=3).embed(TRIPLE_RING)
        g1 = rand_poly(rng, BASE, 2, terms=3).embed(TRIPLE_RING)
        if h.uses("z") and f1 and g1:
            break
    f, g = h * f1, h * g1

    def check(dec):
        if dec is None:
            return "a Poisson triple (f, g, 0) was reported non-Poisson"
        if dec.common * dec.f_cofactor != f or dec.common * dec.g_cofactor != g:
            return "the split does not multiply back to (f, g)"
        if dec.f_cofactor.uses("z") or dec.g_cofactor.uses("z"):
            return "a cofactor depends on z"
        return None

    return Task(ident, lambda: decompose_fg0(f, g), check)


ALGEBRA_PASS = 900


def build_algebra(seed: int) -> Workload:
    """A pass of ALGEBRA_PASS tasks, cycling through five kinds.

    Each kind also cycles through its structures, so every seed gets the
    same mix and only the random polynomials change.
    """
    rng = random.Random(seed)
    wl = Workload("algebra", seed, LIMITS["algebra"])
    c3 = list(_criterion_3_deltas().items())
    c1 = list(_criterion_1_deltas().items())
    for k in range(ALGEBRA_PASS):
        kind, turn = k % 5, k // 5
        name, d = c3[turn % len(c3)]
        if kind == 0:
            wl.tasks.append(_semiclassical_task(f"semiclassical:{name}:{k}", d, rng))
        elif kind in (1, 2):
            label = "commutator" if kind == 2 else "ore-mul"
            wl.tasks.append(_ore_task(f"{label}:{name}:{k}", d, rng, kind == 2))
        elif kind == 3:
            name, d = c1[turn % len(c1)]
            wl.tasks.append(_axioms_task(f"axioms:{name}:{k}", d, rng))
        else:
            wl.tasks.append(_decompose_task(f"decompose:{k}", rng))
    return wl


# -- ideals --------------------------------------------------------------------


def _value_at(p: Poly, point: tuple[Fraction, Fraction]) -> Fraction:
    """p at a rational point, in plain Fractions (inputs are real)."""
    acc = Fraction(0)
    for (i, j), c in p.terms.items():
        acc += c.re * point[0] ** i * point[1] ** j
    return acc


def _planted_ideal(rng: random.Random) -> tuple[list[Poly], tuple[Fraction, Fraction]]:
    """Two generators with a common rational zero, so the ideal is proper."""
    point = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
    gens = []
    while len(gens) < 2:
        r = rand_poly(rng, BASE, 2, terms=3, span=2)
        g = r - Poly.constant(BASE, GaussRat(_value_at(r, point)))
        if g.total_degree() >= 1:
            gens.append(g)
    return gens, point


def la_member(gens: list[Poly], p: Poly, bound: int) -> bool:
    """Bounded linear-algebra membership (tests/oracles.py), retried 2 degrees higher.

    A yes certifies that p lies in the ideal of gens.
    """
    from oracles import membership_by_linear_algebra

    return membership_by_linear_algebra(gens, p, bound) or membership_by_linear_algebra(gens, p, bound + 2)


def _membership_task(ident, ideal_box, gens, probe, member, witness_deg) -> Task:
    def check(verdict):
        if verdict != member:
            return f"membership {verdict}, reference {member}"
        if member and not la_member(gens, probe, witness_deg):
            return "linear algebra found no witness for a planted member"
        return None

    return Task(ident, lambda: ideal_box[0].contains_poly(probe), check)


def _basis_task(ident: str, box: list, gens: list[Poly]) -> Task:
    """Grevlex basis of a fresh IdealPres; the membership probes reuse it."""

    def run():
        box[0] = IdealPres(BASE, gens)  # fresh per pass: no basis survives a pass
        return box[0].basis()

    def check(basis):
        # the basis and the generators must span the same ideal
        for g in basis:
            if not la_member(gens, g, g.total_degree() + 2):
                return "a basis element is not certified inside the ideal"
        for g in gens:
            if not la_member(basis, g, g.total_degree()):
                return "a generator is not certified inside the basis's ideal"
        return None

    return Task(ident, run, check)


def core_pool(seed: int = 7, size: int = 120) -> list[dict]:
    """Planted ideals under registry derivations, for the stable-step tasks."""
    rng = random.Random(seed)
    registry = load_registry()
    names = [n for n, c in registry.items() if c.kind == "delta" and c.ring == BASE]
    out = []
    for k in range(size):
        name = names[rng.randrange(len(names))]
        gens, point = _planted_ideal(rng)
        out.append(
            {
                "id": f"core-{k:03d}",
                "delta": name,
                "gens": [render(g) for g in gens],
                "point": [str(c) for c in point],
            }
        )
    return out


def _core_task(entry: dict, delta: Derivation) -> Task:
    """One stable step {a in I : delta(a) in I} of a planted ideal.

    The reference is sympy's reduced grevlex basis of the step, computed
    through syzygies (make_refs.py).  The step's generators and the
    reference must lie in each other's ideal; a degree-compatible basis
    gives every member a witness within its own degree.
    """
    gens = [parse_poly(g, BASE) for g in entry["gens"]]

    def check(result):
        step = list(result.core.generators)
        ref = [parse_poly(g, BASE) for g in entry["step"]]
        if not all(la_member(ref, g, g.total_degree()) for g in step):
            return "a step generator lies outside the reference step"
        if not all(la_member(step, r, r.total_degree()) for r in ref):
            return "the step misses part of the reference step"
        return None

    def run():
        return delta_core(IdealPres(BASE, gens), delta, max_iter=1)

    return Task(f"core:{entry['delta']}:{entry['id']}", run, check)


def _transport_tasks(name: str, desc, delta, refs: dict) -> list[Task]:
    golden = json.loads(_golden(name))["spectrum"]

    def check_gamma(moved):
        if moved.side == golden["side"]:
            return "transport did not change side"
        got = [list(e.generator_strings()) for e in moved.entries]
        want = [e["generators"] for e in golden["entries"]]
        return None if got == want else "transported generators differ from the golden spectrum"

    def check_inclusions(pairs):
        gens = [e["generators"] for e in golden["entries"]]
        got = sorted([gens[i], gens[j]] for i, j in pairs)
        return None if got == refs[name] else f"inclusions differ from the sympy reference for {name}"

    return [
        Task(f"gamma:{name}", lambda: gamma_map(desc, delta), check_gamma),
        Task(f"inclusions:{name}", lambda: spectrum_inclusions(desc, BASE), check_inclusions),
    ]


IDEAL_GROUPS = 96
PROBES = 4
TRANSPORT = ("gwj", "bergman", "exact-circle", "new")


def _registry_spectrum(cfg):
    if cfg.kind == "exact":
        a = parse_poly(cfg.potential, cfg.ring)
        return classify_exact_spectrum(a), cfg.derivation()
    d = cfg.derivation()
    return classify_delta_spectrum(d, cfg.dmax), d


def build_ideals(seed: int) -> Workload:
    """Seeded consistent ideals: cached-basis queries, stable steps, transport.

    Each of IDEAL_GROUPS planted two-generator ideals gets one grevlex
    basis and PROBES membership queries against it (half planted members,
    half non-members certified by the planted zero).  Stable steps come
    from a pool of planted ideals under the registry derivations, drawn
    by strata like classify's.  The registry spectra with golden files are
    transported and their inclusions listed once per pass.
    """
    rng = random.Random(seed)
    limit = LIMITS["ideals"]
    wl = Workload("ideals", seed, limit)
    registry = load_registry()
    refs = json.loads(IDEALS_REFS_FILE.read_text())
    for g in range(IDEAL_GROUPS):
        gens, point = _planted_ideal(rng)
        box: list = [None]
        wl.tasks.append(_basis_task(f"ideal:{g}:basis", box, gens))
        for k in range(PROBES):
            if k % 2 == 0:
                cofs = [rand_poly(rng, BASE, 2, terms=2) for _ in gens]
                probe = sum((c * q for c, q in zip(cofs, gens)), Poly.zero(BASE))
                wdeg = max(c.total_degree() + q.total_degree() for c, q in zip(cofs, gens))
                member = True
            else:
                probe = rand_poly(rng, BASE, 3, terms=3)
                while _value_at(probe, point) == 0:
                    probe = probe + Poly.one(BASE)
                wdeg, member = 0, False
            wl.tasks.append(
                _membership_task(f"ideal:{g}:probe{k}", box, gens, probe, member, wdeg)
            )
    derivations = {}
    for entry in stratified(rng, refs["core_pool"], limit, HARD_CORES):
        name = entry["delta"]
        if name not in derivations:
            derivations[name] = registry[name].derivation()
        wl.tasks.append(_core_task(entry, derivations[name]))
    for name in TRANSPORT:
        desc, delta = _registry_spectrum(registry[name])
        wl.tasks.extend(_transport_tasks(name, desc, delta, refs["inclusions"]))
    return wl


BUILDERS = {"classify": build_classify, "algebra": build_algebra, "ideals": build_ideals}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
