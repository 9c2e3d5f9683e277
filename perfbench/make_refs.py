"""Build the checked-in pools and references in perfbench/data/.

    python3 perfbench/make_refs.py refs             # sympy references (needs sympy)
    python3 perfbench/make_refs.py ideals           # only the ideals workload's file
    python3 perfbench/make_refs.py label classify   # baseline times of a pool
    python3 perfbench/make_refs.py label ideals

`refs` draws the pool of random quadratic derivations (criterion 9's
distribution, from POOL_SEED) and computes, with sympy and nothing from
the package's solver, what a correct classification must contain: the
irreducible stable curves of degree <= dmax that do not divide every
image, the QQ(i)-rational singular points, and whether a stratum carries
an infinite family.  It does the same for the registry derivations and
for the two defect inputs, where sympy finishes (classify_refs.json).
`ideals` writes the pool of planted stable-step ideals with sympy's
basis of each stable step, and, from sympy Groebner bases, the inclusion
pairs of the golden spectra (ideals_refs.json).

`label` times the package's own work on each entry of one pool under a
cap and stores it as `baseline_s` (null when undecided within the cap).
The workloads sort entries into strata by these frozen times; the strata
only fix how many entries of each kind a run takes, so that every seed
gets the same mix.  They are never used to judge a verdict.

The measuring process (run.py) reads the file and never imports sympy.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import signal
import sys
import time
from fractions import Fraction

from common import BASE, rand_poly
from workloads import DEFECTS, GOLDEN_DIR, IDEALS_REFS_FILE, LIMITS, REFS_FILE, TRANSPORT, core_pool, gave_up

from poissonore import Derivation, GaussRat, Poly, classify_delta_spectrum, load_registry, render

POOL_SEED = 2026
POOL_SIZE = 200
LABEL_CAP_S = 6.0
SYMPY_CAP_S = 600.0


def pool_draws(seed: int = POOL_SEED, size: int = POOL_SIZE) -> list[tuple[str, Derivation]]:
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        d = Derivation(BASE, {v: rand_poly(rng, BASE, 2, terms=3, span=2) for v in BASE})
        if not d.is_zero():
            out.append((f"rand-{len(out):03d}", d))
    return out


def delta_spec(d: Derivation) -> str:
    return ",".join(f"{v}={render(d.image(v))}" for v in d.ring)


# -- sympy side ---------------------------------------------------------------


def _rational_points(d: Derivation, images, gens) -> list | None:
    """QQ(i)-rational common zeros of the images; None when they form a curve."""
    import sympy
    from oracles import _gauss_from_sympy

    nonzero = [img for img in images if img != 0]
    if any(not img.free_symbols for img in nonzero):
        return []  # a nonzero constant image vanishes nowhere
    if len(nonzero) < len(gens):
        return None  # fewer equations than unknowns: a curve
    points = []
    for sol in sympy.solve(nonzero, gens, dict=True):
        if any(g not in sol or sol[g].free_symbols for g in gens):
            return None
        values = [_gauss_from_sympy(sol[g]) for g in gens]
        if all(c is not None for c in values):
            points.append(
                [render(Poly.var(d.ring, v) - Poly.constant(d.ring, c)) for v, c in zip(d.ring, values)]
            )
    return sorted(points)


def stable_reference(d: Derivation, dmax: int) -> dict:
    """Stable curves and singular points of d, computed by sympy."""
    import sympy
    from oracles import _to_sympy, stable_curves_by_sympy

    from poissonore import parse_poly

    syms = {v: sympy.Symbol(v) for v in d.ring}
    gens = [syms[v] for v in d.ring]
    images = [_to_sympy(d.image(v), syms) for v in d.ring]
    curves, family = stable_curves_by_sympy(d, dmax)
    principal = []
    for text in sorted(curves):
        q = _to_sympy(parse_poly(text, d.ring), syms)
        _, factors = sympy.factor_list(q, *gens, gaussian=True)
        nonconstant = [(f, k) for f, k in factors if sympy.Poly(f, *gens).total_degree() > 0]
        if len(nonconstant) != 1 or nonconstant[0][1] != 1:
            continue
        qp = sympy.Poly(q, *gens, domain="QQ_I")
        if all(
            img == 0 or sympy.Poly(img, *gens, domain="QQ_I").rem(qp).is_zero for img in images
        ):
            continue  # divides every image: the classification skips it
        principal.append(text)
    return {
        "curves": sorted(curves),
        "principal": principal,
        "points": _rational_points(d, images, gens),
        "family": family,
    }


def _reference_job(args):
    spec, dmax = args
    from poissonore.cli import _delta_from_spec

    return stable_reference(_delta_from_spec(spec), dmax)


def _capped(spec: str, dmax: int) -> dict | None:
    """stable_reference in a child process, or None if sympy runs past the cap."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        job = pool.apply_async(_reference_job, ((spec, dmax),))
        try:
            return job.get(SYMPY_CAP_S)
        except multiprocessing.TimeoutError:
            return None


def build_refs() -> None:
    registry = load_registry()
    refs: dict = {"pool_seed": POOL_SEED, "registry": {}, "defects": {}, "draws": []}
    for name, cfg in registry.items():
        if cfg.kind != "delta":
            continue
        refs["registry"][name] = _capped(delta_spec(cfg.derivation()), cfg.dmax)
        print("registry", name, flush=True)
    for name, (spec, dmax) in DEFECTS.items():
        refs["defects"][name] = _capped(spec, dmax)
        print("defect", name, refs["defects"][name] is not None, flush=True)
    for ident, d in pool_draws():
        ref = stable_reference(d, 2)
        refs["draws"].append({"id": ident, "delta": delta_spec(d), **ref})
        print(ident, flush=True)
    old = json.loads(REFS_FILE.read_text()) if REFS_FILE.exists() else {}
    labels = {e["id"]: e for e in old.get("draws", [])}
    for entry in refs["draws"]:
        if "baseline_s" in labels.get(entry["id"], {}):
            entry["baseline_s"] = labels[entry["id"]]["baseline_s"]
    REFS_FILE.write_text(json.dumps(refs, indent=1) + "\n")


def inclusion_reference(spectrum: dict, samples=(0, 1, -2)) -> list[list[list[str]]]:
    """Strict inclusions between the entries' sampled instances, by sympy.

    Mirrors spectrum_inclusions: entry i lies strictly inside entry j when
    every instance of j contains every instance of i and not conversely.
    """
    import sympy
    from oracles import _to_sympy

    from poissonore import parse_poly
    from poissonore.registry import EXPECTED_RING

    syms = {v: sympy.Symbol(v) for v in EXPECTED_RING}
    x, y, z = syms["x"], syms["y"], syms["z"]

    def instances(entry):
        polys = [_to_sympy(parse_poly(g, EXPECTED_RING), syms) for g in entry["generators"]]
        name = entry["parameters"]
        if name is None:
            return [polys]
        return [[sympy.expand(p.subs(syms[name], s)) for p in polys] for s in samples]

    def contains(big, small):
        big = [p for p in big if p != 0]
        if not big:
            return all(p == 0 for p in small)
        basis = sympy.groebner(big, x, y, z, order="grevlex", domain=sympy.QQ_I)
        return all(basis.contains(p) for p in small)

    rows = [instances(e) for e in spectrum["entries"]]
    out = []
    for i, row_i in enumerate(rows):
        for j, row_j in enumerate(rows):
            if i != j and all(
                contains(b, a) and not contains(a, b) for a in row_i for b in row_j
            ):
                gi = spectrum["entries"][i]["generators"]
                gj = spectrum["entries"][j]["generators"]
                out.append([gi, gj])
    return sorted(out)


def stable_step_reference(entry: dict) -> list[str]:
    """{a in I : delta(a) in I} for I = (g1, g2), as sympy's reduced grevlex basis.

    The package eliminates the graph of a -> a + t*delta(a); this route
    uses syzygies instead.  For a = c1*g1 + c2*g2, delta(a) lies in I
    exactly when c1*delta(g1) + c2*delta(g2) does, so the step is spanned
    by c1*g1 + c2*g2 over the syzygies (c1, c2, c3, c4) of
    (delta(g1), delta(g2), g1, g2).
    """
    import sympy
    from oracles import _to_sympy

    from poissonore import parse_poly

    syms = {v: sympy.Symbol(v) for v in BASE}
    gens = [syms[v] for v in BASE]
    delta = load_registry()[entry["delta"]].derivation()
    polys = [parse_poly(g, BASE) for g in entry["gens"]]
    g = [_to_sympy(p, syms) for p in polys]
    dg = [_to_sympy(delta.apply(p), syms) for p in polys]
    ring = sympy.QQ.old_poly_ring(*gens)
    syzygies = ring.free_module(1).submodule(*[[q] for q in dg + g]).syzygy_module()
    step = []
    for vec in syzygies.gens:
        c = [ring.to_sympy(e) for e in vec]
        a = sympy.expand(c[0] * g[0] + c[1] * g[1])
        if a != 0:
            step.append(a)
    basis = sympy.groebner(step, *gens, order="grevlex", domain=sympy.QQ)
    out = []
    for q in basis.exprs:
        terms = sympy.Poly(q, *gens).terms()
        p = Poly(BASE, {e: GaussRat(Fraction(int(c.p), int(c.q))) for e, c in terms})
        out.append(render(p))
    return out


def build_ideals_refs() -> None:
    old = json.loads(IDEALS_REFS_FILE.read_text()) if IDEALS_REFS_FILE.exists() else {}
    labels = {e["id"]: e for e in old.get("core_pool", [])}
    refs: dict = {"inclusions": {}, "core_pool": core_pool()}
    for name in TRANSPORT:
        spectrum = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["spectrum"]
        refs["inclusions"][name] = inclusion_reference(spectrum)
        print("inclusions", name, len(refs["inclusions"][name]), flush=True)
    for entry in refs["core_pool"]:
        entry["step"] = stable_step_reference(entry)
        if "baseline_s" in labels.get(entry["id"], {}):
            entry["baseline_s"] = labels[entry["id"]]["baseline_s"]
    IDEALS_REFS_FILE.write_text(json.dumps(refs, indent=1) + "\n")


# -- package side -------------------------------------------------------------


class _Cap(BaseException):
    pass


def _alarm(signum, frame):
    raise _Cap()


def _timed(fn, cap_s: float) -> float | None:
    """Seconds fn took, or None if it hit the cap or a resource limit."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        fn()
    except _Cap:
        return None
    except ArithmeticError as exc:
        if not gave_up(exc):
            raise
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return round(time.perf_counter() - t0, 4)


def label(which: str) -> None:
    """Record baseline_s for every entry of one pool."""
    from poissonore import IdealPres, delta_core, parse_poly
    from poissonore.cli import _delta_from_spec

    signal.signal(signal.SIGALRM, _alarm)
    if which == "classify":
        path, key, cap = REFS_FILE, "draws", LABEL_CAP_S
        jobs = lambda e: lambda: classify_delta_spectrum(_delta_from_spec(e["delta"]), 2)  # noqa: E731
    else:
        path, key, cap = IDEALS_REFS_FILE, "core_pool", 2 * LIMITS["ideals"]
        registry = load_registry()

        def jobs(e):
            ideal = IdealPres(BASE, [parse_poly(g, BASE) for g in e["gens"]])
            return lambda: delta_core(ideal, registry[e["delta"]].derivation(), max_iter=1)

    refs = json.loads(path.read_text())
    for entry in refs[key]:
        entry["baseline_s"] = _timed(jobs(entry), cap)
        print(entry["id"], entry["baseline_s"], flush=True)
    path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["refs"]:
        build_refs()
        build_ideals_refs()
    elif sys.argv[1:] == ["ideals"]:
        build_ideals_refs()
    elif sys.argv[1:2] == ["label"] and sys.argv[2:] in (["classify"], ["ideals"]):
        label(sys.argv[2])
    else:
        sys.exit("usage: make_refs.py refs | ideals | label classify|ideals")
