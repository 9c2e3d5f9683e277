"""Time-to-verdict benchmark for poissonore.

    python3 perfbench/run.py --workload classify|algebra|ideals --seed N \
        --seconds S --trace 0|1 [--report FILE]

One client, one process, one thread, closed loop: the next task is sent
when the previous one has its verdict or has been abandoned at the
workload's per-task limit (an interval timer; the run goes on in the same
process).  The run repeats the seed's pass of tasks, whole, until S
seconds have gone by.  Every verdict is checked against its reference
outside the timed region; a wrong verdict fails the run.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  --report writes the
per-task record, the undecided ids and the raw trace totals.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from layertrace import LAYERS, Tracer

SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many tasks beyond it


class TaskTimeout(BaseException):
    """Raised by the interval timer; BaseException so no handler in the package eats it."""


def _alarm(signum, frame):
    raise TaskTimeout()


def run_task(task: workloads.Task, limit_s: float, tracer: Tracer | None) -> dict:
    """Run one task under the limit, then check its verdict untimed."""
    record = {"id": task.id}
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            verdict = task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "decided"
    except TaskTimeout:
        status, verdict = "undecided", "time-out"
    except Exception as exc:  # noqa: BLE001 - a crash is a failed task, reported below
        if workloads.gave_up(exc):
            status, verdict = "undecided", f"resource cap: {exc}"
        else:
            status, verdict = "failed", traceback.format_exc(limit=-3)
    finally:
        record["elapsed_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_task()
    if status == "decided":
        problem = task.check(verdict)
        if problem is not None:
            status, verdict = "failed", f"wrong verdict: {problem}"
    record["status"] = status
    if status != "decided":
        record["detail"] = verdict if isinstance(verdict, str) else repr(verdict)
    return record


def run_pass(wl: workloads.Workload, limit_s: float, tracer: Tracer | None = None) -> list[dict]:
    return [run_task(t, limit_s, tracer) for t in wl.tasks]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh processes, each timed from launch until its first task is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line}{rest}")
        times.append(elapsed)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND tasks beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def task_times(records: list[dict], limit_s: float) -> list[float]:
    """Time to verdict of each distinct task: its median over the run's passes.

    An undecided attempt counts as over the limit.  Taking one value per
    task keeps the percentiles independent of how many passes fit in a run.
    """
    by_task: dict[str, list[float]] = {}
    for r in records:
        t = r["elapsed_s"] if r["status"] == "decided" else max(r["elapsed_s"], limit_s)
        by_task.setdefault(r["id"], []).append(t)
    return [statistics.median(ts) for ts in by_task.values()]


def end_to_end(records: list[dict], limit_s: float, setup: list[float]) -> tuple[dict, dict]:
    decided = [r for r in records if r["status"] == "decided"]
    times = task_times(records, limit_s)
    busy = sum(r["elapsed_s"] for r in records)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail_s, "s"),
        "verdicts_per_s": (len(decided) / busy, "1/s"),
        "decided_share": (len(decided) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "tail_percentile": tail_pct,
        "tasks": len(times),
        "undecided_share": sum(r["status"] == "undecided" for r in records) / len(records),
        "busy_s": busy,
    }
    return metrics, extra


def _key_total(tracer: Tracer, *keys: str, field: int) -> float:
    return sum(tracer.stats.get(k, (0, 0.0, 0.0))[field] for k in keys)


CALLS, INCL, SELF = 0, 1, 2

# name -> (unit, stats keys, field); totals over the traced set-up and one traced pass
PER_LAYER_KEYS = {
    "poly.exact_divide.calls": ("count", ["poly.exact_divide"], CALLS),
    "poly.exact_divide.incl_s": ("s", ["poly.exact_divide"], INCL),
    "poly.substitute.incl_s": ("s", ["poly.Poly.substitute"], INCL),
    "poly.render.incl_s": ("s", ["poly.render"], INCL),
    "cli.main.self_s": ("s", ["cli.main"], SELF),
    "groebner.lex.calls": ("count", ["groebner.groebner_basis.lex"], CALLS),
    "groebner.lex.incl_s": ("s", ["groebner.groebner_basis.lex"], INCL),
    "groebner.elim.incl_s": ("s", ["groebner.groebner_basis.elim"], INCL),
    "groebner.grevlex.incl_s": ("s", ["groebner.groebner_basis.grevlex"], INCL),
    "groebner.reduce.calls": ("count", ["groebner.reduce_full"], CALLS),
    "groebner.normal_form.calls": ("count", ["groebner.IdealPres.normal_form"], CALLS),
    "groebner.normal_form.incl_s": ("s", ["groebner.IdealPres.normal_form"], INCL),
    "solve.system.calls": ("count", ["solve.solve_system"], CALLS),
    "solve.system.incl_s": ("s", ["solve.solve_system"], INCL),
    "solve.roots.calls": ("count", ["solve.univariate_roots"], CALLS),
    "solve.roots.incl_s": ("s", ["solve.univariate_roots"], INCL),
    "linsolve.rref.calls": ("count", ["linsolve.rref"], CALLS),
    "linsolve.rref.incl_s": ("s", ["linsolve.rref"], INCL),
    "gcd.calls": ("count", ["gcd.gcd_poly"], CALLS),
    "gcd.incl_s": ("s", ["gcd.gcd_poly"], INCL),
    "deriv.apply.calls": ("count", ["deriv.Derivation.apply"], CALLS),
    "deriv.apply.incl_s": ("s", ["deriv.Derivation.apply"], INCL),
    "poisson.bracket.calls": ("count", ["poisson.DeltaBracket.bracket", "poisson.PoissonTriple.bracket"], CALLS),
    "poisson.bracket.incl_s": ("s", ["poisson.DeltaBracket.bracket", "poisson.PoissonTriple.bracket"], INCL),
    "ore.mul.calls": ("count", ["ore.SkewPoly.__mul__"], CALLS),
    "ore.mul.incl_s": ("s", ["ore.SkewPoly.__mul__"], INCL),
    "ore.semiclassical.incl_s": ("s", ["ore.semiclassical_bracket"], INCL),
    "spectra.darboux.incl_s": ("s", ["spectra.darboux_search"], INCL),
    "spectra.factorizations.incl_s": ("s", ["spectra.factorizations"], INCL),
    "spectra.singular_locus.incl_s": ("s", ["spectra.singular_locus"], INCL),
    "spectra.core.incl_s": ("s", ["spectra.delta_core"], INCL),
    "spectra.gamma.incl_s": ("s", ["spectra.gamma_map"], INCL),
    "spectra.inclusions.incl_s": ("s", ["spectra.spectrum_inclusions"], INCL),
    "parser.parse.incl_s": ("s", ["parser.parse_poly"], INCL),
    "registry.load_s": ("s", ["registry.load_registry"], INCL),
}


def per_layer(tracer: Tracer, overhead: float) -> dict:
    metrics = {}
    for layer in LAYERS:
        calls, _, self_s = tracer.totals(layer)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name, (unit, keys, fld) in PER_LAYER_KEYS.items():
        metrics[name] = (_key_total(tracer, *keys, field=fld), unit)
    useful = tracer.useful_reductions / tracer.basis_reductions if tracer.basis_reductions else 0.0
    metrics["groebner.reduce.useful_ratio"] = (useful, "ratio")
    metrics["spectra.strata"] = (tracer.darboux_strata, "count")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def trace_overhead(plain: list[dict], traced: list[dict]) -> float:
    """Traced over untraced task time, on the tasks both passes decided."""
    before = {r["id"]: r["elapsed_s"] for r in plain if r["status"] == "decided"}
    pairs = [(before[r["id"]], r["elapsed_s"]) for r in traced if r["status"] == "decided" and r["id"] in before]
    return sum(t for _, t in pairs) / sum(b for b, _ in pairs)


def _emit(metrics: dict, records: list[dict], report: dict, path: str | None) -> int:
    failed = [r for r in records if r["status"] == "failed"]
    for r in failed:
        print(f"FAILED {r['id']}: {r['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if "sympy" in sys.modules:
        raise RuntimeError("the measuring process imported sympy")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if path:
        report.update(result)
        report["records"] = records
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failed else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="write per-task records and trace totals here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    wl = workloads.build(args.workload, args.seed)
    # the inputs live for the whole run: keep the cyclic collector off them,
    # so that the package's own garbage is all it scans
    gc.freeze()
    report = {"workload": args.workload, "seed": args.seed, "limit_s": wl.limit_s}
    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
        records: list[dict] = []
        passes = 0
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            records.extend(run_pass(wl, wl.limit_s))
            passes += 1
        metrics, extra = end_to_end(records, wl.limit_s, setup)
        report.update(extra, setup_probes_s=setup, passes=passes)
        report["undecided"] = sorted({r["id"] for r in records if r["status"] == "undecided"})
        print(
            f"{args.workload}: {extra['tasks']} tasks, undecided share {extra['undecided_share']:.4f}, "
            f"tail at p{extra['tail_percentile']:.1f}, limit {wl.limit_s} s"
        )
        return _emit(metrics, records, report, args.report)

    plain = run_pass(wl, wl.limit_s)
    tracer = Tracer()
    tracer.install(callers=(workloads,))
    try:
        tracer.active = True
        wl = workloads.build(args.workload, args.seed)  # traced set-up: parser, registry
        tracer.active = False
        # the traced pass gets twice the limit, so the trace's own cost does
        # not turn decided tasks into abandoned ones
        traced = run_pass(wl, 2 * wl.limit_s, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, trace_overhead(plain, traced))
    report["trace_stats"] = {k: v for k, v in sorted(tracer.stats.items())}
    return _emit(metrics, plain + traced, report, args.report)


if __name__ == "__main__":
    sys.exit(main())
