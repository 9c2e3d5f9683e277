"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from common import ROOT  # noqa: E402

from poissonore import IdealPres, Poly  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv], capture_output=True, text=True, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_name_and_unit(trace, section):
    out = _last_json(["--workload", "algebra", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONFIG[section]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def test_planted_wrong_reference_fails_the_run(alarm, monkeypatch, capsys):
    wl = workloads.build("algebra", 5)
    monkeypatch.setattr(workloads, "bracket_by_bivector", lambda delta, p, q: Poly.one(p.ring))
    records = run.run_pass(wl, wl.limit_s)
    wrong = [r for r in records if r["status"] == "failed"]
    assert wrong and all("wrong verdict" in r["detail"] for r in wrong)
    metrics, _ = run.end_to_end(records, wl.limit_s, [0.1])
    assert run._emit(metrics, records, {}, None) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == len(wrong)


def test_planted_wrong_spectrum_reference_is_caught():
    spectrum = {
        "completeness": "height-one entries complete through degree 2",
        "entries": [
            {"generators": ["y^2 + x + 1"], "certificates": [{"name": "shape", "value": "principal"}]},
            {"generators": ["x", "y"], "certificates": [{"name": "shape", "value": "point"}]},
        ],
    }
    ref = {"principal": ["y^2 + x + 1"], "points": [["x", "y"]], "family": False}
    assert workloads.check_spectrum(spectrum, ref) is None
    assert workloads.check_spectrum(spectrum, dict(ref, principal=["x"])) is not None
    assert workloads.check_spectrum(spectrum, dict(ref, points=None)) is not None


def test_task_over_the_limit_counts_as_undecided(alarm):
    def spin():
        while True:
            time.sleep(0.01)

    def capped():
        raise ArithmeticError("root candidate search space too large")

    quick = workloads.Task("quick", lambda: 1, lambda v: None)
    slow = workloads.Task("slow", spin, lambda v: "never checked")
    cap = workloads.Task("cap", capped, lambda v: "never checked")
    wl = workloads.Workload("t", 0, 0.05, [quick, slow, cap, quick])
    records = run.run_pass(wl, wl.limit_s)
    assert [r["status"] for r in records] == ["decided", "undecided", "undecided", "decided"]
    assert records[1]["elapsed_s"] >= 0.05
    metrics, extra = run.end_to_end(records, wl.limit_s, [0.1])
    assert metrics["decided_share"][0] == 0.5
    assert extra["undecided_share"] == 0.5


def test_other_arithmetic_errors_fail_the_run(alarm, monkeypatch, capsys):
    def divide():
        return 1 / 0

    def self_check():
        raise ArithmeticError("cofactor mismatch")

    def cli_self_check(argv):
        print("verification failure: factor verification failed", file=sys.stderr)
        return 1

    monkeypatch.setattr(workloads.cli, "main", cli_self_check)
    example = workloads.Task("cli", lambda: workloads._cli(["example", "gwj"]), lambda v: v[0] and "exit code 1")
    tasks = [workloads.Task(i, fn, lambda v: None) for i, fn in (("zero", divide), ("check", self_check))]
    records = run.run_pass(workloads.Workload("t", 0, 1.0, [*tasks, example]), 1.0)
    assert [r["status"] for r in records] == ["failed", "failed", "failed"]
    metrics, _ = run.end_to_end(records, 1.0, [0.1])
    assert run._emit(metrics, records, {}, None) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_cli_resource_cap_counts_as_undecided(monkeypatch):
    def capped(argv):
        print(f"verification failure: {workloads.RESOURCE_CAP}", file=sys.stderr)
        return 1

    monkeypatch.setattr(workloads.cli, "main", capped)
    with pytest.raises(workloads.Undecided):
        workloads._cli(["darboux", "--delta", "x=y,y=x+x^2*y", "--dmax", "6"])


def test_truncated_ideal_results_fail_their_checks():
    basis = next(t for t in workloads.build("ideals", 3).tasks if t.id.endswith(":basis"))
    entry = json.loads(workloads.IDEALS_REFS_FILE.read_text())["core_pool"][0]
    core = workloads._core_task(entry, workloads.load_registry()[entry["delta"]].derivation())
    full_basis, step = basis.run(), core.run()
    assert basis.check(full_basis) is None and core.check(step) is None
    assert basis.check([]) is not None
    kept = list(step.core.generators)[:-1]
    assert core.check(dataclasses.replace(step, core=IdealPres(step.core.ring, kept))) is not None


def test_trace_drops_frames_an_abandoned_task_left():
    tracer = Tracer()

    def body():
        tracer._stack.append(["struck", 0.0])  # a callee's push that the timer cut short
        time.sleep(0.05)
        raise run.TaskTimeout()

    inner = tracer._wrap("t.inner", body)
    outer = tracer._wrap("t.outer", inner)
    tracer.active = True
    with pytest.raises(run.TaskTimeout):
        outer()
    tracer.end_task()
    assert tracer.stats["t.inner"][2] >= 0.05
    assert tracer.stats["t.outer"][2] < 0.01  # inner's time is not its own
    assert not tracer._stack and not tracer._depth


@pytest.mark.parametrize("name", ["classify", "algebra", "ideals"])
def test_same_seed_gives_same_inputs(name):
    first, again, other = (workloads.build(name, s) for s in (11, 11, 12))
    ids = lambda wl: [t.id for t in wl.tasks]  # noqa: E731
    assert ids(first) == ids(again)
    if name == "classify":
        assert ids(first) != ids(other)
        return
    # inputs live in the task closures; the first verdicts expose them
    head = lambda wl: [repr(t.run()) for t in wl.tasks[:6]]  # noqa: E731
    assert head(first) == head(again)
    assert head(first) != head(other)
