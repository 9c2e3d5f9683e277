"""Compare two sweep result files, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.json NEW.json
    python3 perfbench/compare.py base1.json,base2.json new1.json,new2.json

For each workload and metric it prints both sides' medians and quartiles,
the pair wins (runs paired by seed; ties count for neither side) and a
verdict for the new side against the bound in BENCHMARK.json:

- improved:  it wins at least 9 of 10 pairs and the medians differ by
  more than the base's own interquartile range;
- no worse:  its median is not worse than the base's by more than the
  bound, and the base's spread is within the bound;
- worse:     its median is worse by more than the bound, and the base's
  spread is within the bound;
- unresolved: the spread is wider than the bound and not every new run
  beats every base run.

Per-layer metrics have no bound; they get medians, quartiles and wins only.

The undecided task ids of each run are compared seed by seed as well.  A
task that the new side leaves undecided and the base decided is listed,
and it makes the workload's decided_share "worse" whatever its median.
"""

from __future__ import annotations

import json
import statistics
import sys

from sweep import bench_config


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], wins: int, pairs: int, lower: bool, bound) -> str:
    if bound is None:
        return "-"
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)
    if pairs and wins >= 0.9 * pairs and abs(med_n - med_b) > q3 - q1:
        return "improved"
    worse_by = (med_n - med_b) / med_b if lower else (med_b - med_n) / med_b
    spread = (q3 - q1) / med_b if med_b else float("inf")
    beats_all = min(new) > max(base) if not lower else max(new) < min(base)
    if spread > bound and not beats_all:
        return "unresolved"
    return "no worse" if worse_by <= bound else "worse"


def index(paths: str) -> tuple[dict, dict]:
    """Over comma-separated sweep files: (workload, metric) -> {seed: value},
    and workload -> {seed: undecided ids}."""
    out: dict = {}
    undecided: dict = {}
    for path in paths.split(","):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
        for run in runs:
            for name, m in run["result"]["metrics"].items():
                out.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
            undecided.setdefault(run["workload"], {}).setdefault(run["seed"], set()).update(run["undecided"])
    return out, undecided


def newly_undecided(base: dict, new: dict) -> dict:
    """workload -> {seed: ids undecided on the new side only}, over shared seeds."""
    out: dict = {}
    for workload in base.keys() & new.keys():
        for seed in base[workload].keys() & new[workload].keys():
            ids = new[workload][seed] - base[workload][seed]
            if ids:
                out.setdefault(workload, {})[seed] = sorted(ids)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare.py BASE.json[,...] NEW.json[,...]")
    cfg = bench_config()
    meta = {m["name"]: m for m in cfg["end_to_end"] + cfg["per_layer"]}
    (base, base_undecided), (new, new_undecided) = index(argv[0]), index(argv[1])
    newly = newly_undecided(base_undecided, new_undecided)
    header = f"{'workload':9s} {'metric':30s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'wins':>7s}  verdict"
    print(header)
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = base[key], new[key]
        info = meta.get(name, {"better": "lower"})
        lower = info["better"] == "lower"
        seeds = sorted(b.keys() & n.keys())
        wins = sum((n[s] < b[s]) if lower else (n[s] > b[s]) for s in seeds)
        bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
        text = verdict(list(b.values()), list(n.values()), wins, len(seeds), lower, info.get("bound"))
        if name == "decided_share" and workload in newly:
            text = "worse (newly undecided tasks)"
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{workload:9s} {name:30s} {fmt(bq):>32s} {fmt(nq):>32s} {wins:>3d}/{len(seeds):<3d}  {text}")
    for workload, by_seed in sorted(newly.items()):
        for seed, ids in sorted(by_seed.items()):
            print(f"newly undecided: {workload} seed {seed}: {', '.join(ids)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
