"""Command-line frontend.

Exit codes: 0 success, 1 mathematical negative (failed check, empty
solve, unresolved locus), 2 usage, parse or input-file errors.  All
diagnostics go to stderr; --json output is deterministic for
golden-file comparison.
"""

from __future__ import annotations

import argparse
import json
import sys

from .deriv import Derivation, DerivationError, exact_derivation
from .ore import SkewPoly, commutator, quantize, semiclassical_bracket
from .parser import ParseError, _is_name, parse_poly
from .poisson import (
    DeltaBracket,
    PoissonTriple,
    TRIPLE_RING,
    decompose_fg0,
    hamiltonian,
    is_poisson_triple,
)
from .polycore import (
    IdealPres,
    Poly,
    SolutionFamily,
    canonical_ring,
    order_by_tag,
    render_coeff,
)
from .polycore.poly import render
from .registry import basis_set, load_registry
from .spectra import (
    classify_delta_spectrum,
    classify_exact_spectrum,
    darboux_search,
    delta_core,
    gamma_map,
    image_solvable,
    shamsuddin_simple,
    singular_locus,
)

DEFAULT_DMAX = 2
DELTA_HELP = "derivation images, e.g. x=2*y,y=y^2+x"


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _parse_assignments(spec: str, what: str) -> list[tuple[str, str]]:
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"{what} item {chunk!r} is not name=expr", 0)
        name, expr = chunk.split("=", 1)
        name = name.strip()
        if not _is_name(name):
            raise ParseError(f"{what} name {name!r} is not a variable name", 0)
        if any(name == seen for seen, _ in out):
            raise ParseError(f"{what} names {name!r} twice", 0)
        out.append((name, expr.strip()))
    return out


def _delta_from_spec(spec: str) -> Derivation:
    pairs = _parse_assignments(spec, "--delta")
    if not pairs:
        raise ParseError("--delta needs at least one image", 0)
    ring = canonical_ring(name for name, _ in pairs)
    if "z" in ring or "h" in ring:
        raise ParseError("z and h are reserved for the extension", 0)
    return Derivation(ring, {name: parse_poly(expr, ring) for name, expr in pairs})


def _triple_from_spec(spec: str) -> PoissonTriple:
    pairs = dict(_parse_assignments(spec, "--triple"))
    if set(pairs) != {"f", "g", "h"}:
        raise ParseError(f"--triple takes exactly f, g and h, not {sorted(pairs)}", 0)
    return PoissonTriple(
        parse_poly(pairs["f"], TRIPLE_RING),
        parse_poly(pairs["g"], TRIPLE_RING),
        parse_poly(pairs["h"], TRIPLE_RING),
    )


def _structure(args):
    if args.triple is not None:
        return _triple_from_spec(args.triple)
    return DeltaBracket(_delta_from_spec(args.delta))


def _inputs(args, count: int) -> list[str]:
    texts = list(args.exprs or [])
    if args.file:
        with open(args.file) as fh:
            texts.extend(line.strip() for line in fh if line.strip())
    if len(texts) != count:
        raise ParseError(f"expected {count} expression(s), got {len(texts)}", 0)
    return texts


def _show(args, p: Poly) -> str:
    return render(p, order_by_tag(getattr(args, "order", "grevlex")))


def _add_common(sub, exprs: int = 0, delta: bool = False, triple: bool = False):
    if triple:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--delta", help=DELTA_HELP)
        group.add_argument("--triple", help="components f=EXPR,g=EXPR,h=EXPR")
    elif delta:
        sub.add_argument("--delta", required=True, help=DELTA_HELP)
    if exprs:
        sub.add_argument("exprs", nargs="*", metavar="EXPR")
        sub.add_argument("--file", help="read expressions from a file, one per line")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")


def _cmd_bracket(args) -> int:
    structure = _structure(args)
    p, q = (parse_poly(s, structure.ring) for s in _inputs(args, 2))
    value = structure.bracket(p, q)
    text = _show(args, value)
    _emit({"bracket": text}, text, args.json)
    return 0


def _cmd_jacobi(args) -> int:
    structure = _structure(args)
    triple = structure if isinstance(structure, PoissonTriple) else structure.as_triple()
    check = is_poisson_triple(triple)
    residual = _show(args, check.residue)
    text = "jacobi holds" if check else f"residual: {residual}"
    _emit({"poisson": bool(check), "residual": residual}, text, args.json)
    return 0 if check else 1


def _cmd_decompose(args) -> int:
    f, g = (parse_poly(s, TRIPLE_RING) for s in _inputs(args, 2))
    dec = decompose_fg0(f, g)
    if dec is None:
        print("not a bracket pair: f*g_z != g*f_z", file=sys.stderr)
        return 1
    payload = {
        "common": _show(args, dec.common),
        "f_cofactor": _show(args, dec.f_cofactor),
        "g_cofactor": _show(args, dec.g_cofactor),
    }
    text = "\n".join(f"{k}: {v}" for k, v in payload.items())
    _emit(payload, text, args.json)
    return 0


def _cmd_ham(args) -> int:
    structure = _structure(args)
    a = parse_poly(_inputs(args, 1)[0], structure.ring)
    deriv = hamiltonian(structure, a)
    images = {v: _show(args, deriv.image(v)) for v in deriv.ring}
    text = "\n".join(f"{v} -> {img}" for v, img in images.items())
    _emit({"images": images}, text, args.json)
    return 0


def _skew_pair(args) -> tuple[SkewPoly, SkewPoly]:
    delta = _delta_from_spec(args.delta)
    ring = delta.ring + ("z",)
    u, v = (parse_poly(s, ring) for s in _inputs(args, 2))
    return SkewPoly.from_poly(delta, u), SkewPoly.from_poly(delta, v)


def _cmd_ore_mul(args) -> int:
    u, v = _skew_pair(args)
    value = (u * v).to_poly()
    text = _show(args, value)
    _emit({"product": text}, text, args.json)
    return 0


def _cmd_commutator(args) -> int:
    u, v = _skew_pair(args)
    value = commutator(u, v).to_poly()
    text = _show(args, value)
    _emit({"commutator": text}, text, args.json)
    return 0


def _cmd_semiclassical(args) -> int:
    delta = _delta_from_spec(args.delta)
    twist = quantize(delta)
    ring = twist.ring + ("z",)
    u, v = (SkewPoly.from_poly(twist, parse_poly(s, ring)) for s in _inputs(args, 2))
    value = semiclassical_bracket(u, v)
    text = _show(args, value)
    _emit({"bracket": text}, text, args.json)
    return 0


def _cmd_darboux(args) -> int:
    delta = _delta_from_spec(args.delta)
    certs = darboux_search(delta, args.dmax)
    pairs = [(_show(args, c.q), _show(args, c.cofactor)) for c in certs]
    payload = {
        "dmax": args.dmax,
        "certificates": [{"q": q, "cofactor": w} for q, w in pairs],
    }
    text = "\n".join(f"q = {q}   cofactor = {w}" for q, w in pairs) or "none"
    _emit(payload, text, args.json)
    return 0


def _cmd_shamsuddin(args) -> int:
    ring = ("x",)
    a = parse_poly(args.a, ring)
    b = parse_poly(args.b, ring)
    c = parse_poly(args.c, ring) if args.c else None
    verdict = shamsuddin_simple(a, b, c)
    witness = None if verdict.witness is None else _show(args, verdict.witness)
    payload = {"simple": verdict.simple, "witness": witness, "reason": verdict.reason}
    if verdict.simple:
        text = "simple"
    elif witness is None:
        text = f"hypothesis fails: {verdict.reason}"
    else:
        text = f"hypothesis fails: r = {witness}"
    _emit(payload, text, args.json)
    return 0 if verdict.simple else 1


def _cmd_core(args) -> int:
    delta = _delta_from_spec(args.delta)
    gens = [parse_poly(s, delta.ring) for s in args.ideal.split(",") if s.strip()]
    result = delta_core(IdealPres(delta.ring, gens), delta, args.max_iter)
    basis = list(result.core.basis_strings(order_by_tag(args.order)))
    status = "exact" if result.exact else "upper bound only"
    payload = {
        "status": status,
        "iterations": result.iterations,
        "basis": basis,
    }
    text = f"{status} after {result.iterations} step(s): ({', '.join(basis) or '0'})"
    _emit(payload, text, args.json)
    return 0


def _cmd_singular(args) -> int:
    structure = _structure(args)
    locus = singular_locus(structure)
    basis = list(locus.ideal.basis_strings(order_by_tag(args.order)))
    points = [
        {v: render_coeff(pt[v]) for v in sorted(pt)} for pt in locus.points
    ]
    payload = {"basis": basis, "resolved": locus.resolved, "points": points}
    lines = [f"ideal: ({', '.join(basis) or '0'})"]
    if locus.resolved:
        for pt in points:
            lines.append("point: " + ", ".join(f"{v} = {c}" for v, c in pt.items()))
    else:
        lines.append("points: unresolved (positive-dimensional)")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if locus.resolved else 1


def _cmd_image_solve(args) -> int:
    delta = _delta_from_spec(args.delta)
    target = parse_poly(_inputs(args, 1)[0], delta.ring)
    p = image_solvable(delta, target, args.dmax)
    shown = None if p is None else _show(args, p)
    payload = {"dmax": args.dmax, "preimage": shown}
    _emit(payload, "none" if shown is None else shown, args.json)
    return 0 if p is not None else 1


def _classification(args):
    if args.exact is not None:
        if args.dmax is not None:
            raise ValueError("--dmax does not apply to --exact, whose classification is complete")
        a = parse_poly(args.exact, canonical_ring(("x", "y")))
        return classify_exact_spectrum(a), exact_derivation(a)
    delta = _delta_from_spec(args.delta)
    dmax = DEFAULT_DMAX if args.dmax is None else args.dmax
    return classify_delta_spectrum(delta, dmax), delta


def _cmd_classify(args) -> int:
    desc, _ = _classification(args)
    _emit(desc.to_json_dict(), desc.render_text(), args.json)
    return 0


def _cmd_gamma(args) -> int:
    desc, delta = _classification(args)
    moved = gamma_map(desc, delta)
    _emit(moved.to_json_dict(), moved.render_text(), args.json)
    return 0


def _spectrum_for(cfg):
    if cfg.kind == "exact":
        ring = cfg.ring
        a = parse_poly(cfg.potential, ring)
        return classify_exact_spectrum(a)
    return classify_delta_spectrum(cfg.derivation(), cfg.dmax)


def _cmd_example(args) -> int:
    registry = load_registry()
    if args.list:
        for name, cfg in registry.items():
            print(f"{name}: {cfg.summary}")
        return 0
    if not args.name:
        print("example: need a name or --list", file=sys.stderr)
        return 2
    cfg = registry.get(args.name)
    if cfg is None:
        print(f"unknown example {args.name!r}", file=sys.stderr)
        return 2
    desc = _spectrum_for(cfg)
    reproduced = None
    expected = cfg.expected_basis_sets()
    if expected is not None:
        reproduced = {basis_set(entry.generators) for entry in desc.entries} == expected
    payload = {
        "name": cfg.name,
        "summary": cfg.summary,
        "spectrum": desc.to_json_dict(),
        "expected_reproduced": reproduced,
    }
    lines = [f"{cfg.name}: {cfg.summary}", desc.render_text()]
    if reproduced is not None:
        lines.append(f"expected spectrum: {'reproduced' if reproduced else 'MISMATCH'}")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if reproduced in (True, None) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="poisson-ore",
        description="Exact Poisson brackets and skew extensions over QQ(i).",
    )
    subs = top.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bracket", help="bracket of two polynomials")
    _add_common(sub, exprs=2, delta=True, triple=True)
    sub.set_defaults(fn=_cmd_bracket)

    sub = subs.add_parser("jacobi", help="verify the Jacobi identity")
    _add_common(sub, delta=True, triple=True)
    sub.set_defaults(fn=_cmd_jacobi)

    sub = subs.add_parser("decompose", help="split (f, g, 0) as h*(f1, g1, 0)")
    _add_common(sub, exprs=2)
    sub.set_defaults(fn=_cmd_decompose)

    sub = subs.add_parser("ham", help="hamiltonian derivation of an element")
    _add_common(sub, exprs=1, delta=True, triple=True)
    sub.set_defaults(fn=_cmd_ham)

    sub = subs.add_parser("ore-mul", help="product in the skew extension")
    _add_common(sub, exprs=2, delta=True)
    sub.set_defaults(fn=_cmd_ore_mul)

    sub = subs.add_parser("commutator", help="commutator in the skew extension")
    _add_common(sub, exprs=2, delta=True)
    sub.set_defaults(fn=_cmd_commutator)

    sub = subs.add_parser(
        "semiclassical", help="h^-1 [u, v] at h = 0 for the twist h*delta"
    )
    _add_common(sub, exprs=2, delta=True)
    sub.set_defaults(fn=_cmd_semiclassical)

    sub = subs.add_parser("darboux", help="bounded search for stable curves")
    _add_common(sub, delta=True)
    sub.add_argument("--dmax", type=int, default=DEFAULT_DMAX)
    sub.set_defaults(fn=_cmd_darboux)

    sub = subs.add_parser("shamsuddin", help="simplicity of x' = c, y' = a*y + b")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.add_argument("--c")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_shamsuddin)

    sub = subs.add_parser("core", help="largest stable ideal inside an ideal")
    _add_common(sub, delta=True)
    sub.add_argument("--ideal", required=True, help="generators, comma separated")
    sub.add_argument("--max-iter", type=int, default=8)
    sub.set_defaults(fn=_cmd_core)

    sub = subs.add_parser("singular", help="common zeros of the structure")
    _add_common(sub, delta=True, triple=True)
    sub.set_defaults(fn=_cmd_singular)

    sub = subs.add_parser("image-solve", help="bounded preimage under the derivation")
    _add_common(sub, exprs=1, delta=True)
    sub.add_argument("--dmax", type=int, default=DEFAULT_DMAX)
    sub.set_defaults(fn=_cmd_image_solve)

    for name, fn, text in (
        ("classify", _cmd_classify, "bounded prime spectrum"),
        ("gamma", _cmd_gamma, "transport a spectrum to the other side"),
    ):
        # the spectrum renders its own generators, in grevlex: no --order
        sub = subs.add_parser(name, help=text)
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--delta", help=DELTA_HELP)
        group.add_argument("--exact", help="potential a(x, y) for the exact bracket")
        sub.add_argument("--dmax", type=int, help=f"with --delta only (default {DEFAULT_DMAX})")
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("example", help="run a named registry example")
    sub.add_argument("name", nargs="?")
    sub.add_argument("--list", action="store_true")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_example)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DerivationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolutionFamily as exc:
        print(f"infinite solution family: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
