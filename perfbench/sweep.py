"""Run the benchmark over several seeds and keep every result in one file.

    python3 perfbench/sweep.py --out results.json [--workloads classify,algebra,ideals]
        [--seeds 1-10] [--trace 0|1] [--seconds S]

Runs are sequential, one process at a time.  Each entry of the output
keeps the final JSON line of run.py plus the undecided task ids and the
tail's percentile from its report.  For every end-to-end metric the sweep
prints the median and the spread (interquartile range over median) per
workload; compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, ROOT


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, trace: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        argv = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--report", str(report_path),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if not proc.stdout.strip():
            raise RuntimeError(f"{workload} seed {seed} printed nothing:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads(report_path.read_text())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": proc.returncode,
        "result": result,
        "undecided": report.get("undecided", []),
        "tail_percentile": report.get("tail_percentile"),
        "tasks": report.get("tasks"),
    }


def summarize(runs: list[dict]) -> None:
    by_workload: dict[str, list[dict]] = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in by_workload.items():
        print(f"== {workload}: {len(rs)} runs, correct {all(r['result']['correct'] for r in rs)}")
        for name in rs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            unit = rs[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name:32s} median {med:.6g} {unit}"
            if len(values) >= 2 and med:
                line += f"   spread {spread(values):.4f}"
            print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=None, help="comma separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    cfg = bench_config()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    seconds = args.seconds if args.seconds is not None else cfg["run_seconds"]
    runs = []
    for workload in names:
        for seed in parse_seeds(args.seeds):
            run = run_one(workload, seed, args.trace, seconds)
            runs.append(run)
            m = run["result"]["metrics"]
            print(workload, seed, {k: round(v["value"], 6) for k, v in m.items()}, flush=True)
    Path(args.out).write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1) + "\n")
    summarize(runs)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
