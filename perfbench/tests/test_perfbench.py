"""Tests of the benchmark itself (not of cubicalc).

    python3 -m pytest perfbench/tests -q

They run cut-down inputs of each workload, so they take seconds, not the
length of a benchmark run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import cubicalc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("polymap.eval_calls", "polymap.subst_calls", "polymap.mul_calls",
          "polymap.terms_out", "rings.calls", "presentation.satisfies_calls",
          "checks.verdicts", "checks.samples", "checks.fail_verdicts",
          "derive.derive_polymap_calls", "laws.verdicts", "parser.calls")


def tiny_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs with the larger sizes left out."""
    inputs = workloads.make_inputs(workload, seed)
    if workload == "axiom-sampled":
        inputs["presentations"] = [p for p in inputs["presentations"]
                                   if p[1] == 1 or (p[1] == 2
                                                    and p[0] != "g_overline")]
    elif workload == "law-symbolic":
        inputs["slope_orders"] = [1, 2]
        inputs["full_laws"] = [["f", 1], ["cubic", 2]]
        inputs["sym_laws"] = inputs["sym_laws"][:3]
        inputs["ext_laws"] = inputs["ext_laws"][:2]
    else:
        inputs["requests"] = inputs["requests"][::4]
    return inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_gives_known_answers(workload):
    ops = workloads.build_ops(workload, tiny_inputs(workload, 3))
    result = run.run_pass(ops, range(len(ops)))
    assert result["failed"] == 0
    assert len(result["latency"]) == len(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 11) == workloads.make_inputs(workload, 11)
    assert workloads.make_inputs(workload, 11) != workloads.make_inputs(workload, 12)


def test_full_sizes_have_enough_ops():
    for workload in workloads.WORKLOADS:
        ops = workloads.build_ops(workload, workloads.make_inputs(workload, 1))
        assert len(ops) >= 100, workload


def test_planted_corruptions_are_caught():
    inputs = tiny_inputs("axiom-sampled", 5)
    inputs["presentations"] = []
    ops = workloads.build_ops("axiom-sampled", inputs)
    assert len(ops) == 6
    assert run.run_pass(ops, range(6))["failed"] == 0


def _traced_pass(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_pass(ops, range(len(ops)), tracer)
    finally:
        tracer.remove()
    return result, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_matches_untraced_and_counts_repeat(workload):
    ops = workloads.build_ops(workload, tiny_inputs(workload, 4))
    untraced = run.run_pass(ops, range(len(ops)))
    first, tracer1 = _traced_pass(ops)
    second, tracer2 = _traced_pass(ops)
    assert untraced["answer"] == first["answer"] == second["answer"]
    assert first["failed"] == 0
    m1, m2 = tracer1.layer_metrics(), tracer2.layer_metrics()
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    assert set(m1) | {"trace.overhead_ratio"} == _per_layer_names()
    assert all(span[4] >= 0 for span in tracer1.spans)
    if workload == "axiom-sampled":
        # the box-constrained schemas reject some points; the others are
        # not in the ratio's base
        assert 0 < m1["presentation.accept_ratio"] < 1
        assert m1["polymap.evals_per_map"] > 1


def test_wrappers_are_removed_at_every_binding():
    from cubicalc import checks, derive, laws, slopes

    before = (checks.check_face, derive.derive_polymap, laws.derive_polymap,
              slopes.derive_polymap, cubicalc.Poly.__mul__,
              cubicalc.Poly.__dict__["var"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert laws.derive_polymap is slopes.derive_polymap
        assert laws.derive_polymap is not before[1]
        assert hasattr(cubicalc.Poly.__mul__, "__wrapped__")
    finally:
        tracer.remove()
    after = (checks.check_face, derive.derive_polymap, laws.derive_polymap,
             slopes.derive_polymap, cubicalc.Poly.__mul__,
             cubicalc.Poly.__dict__["var"])
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [("a.x", 0.0, 10.0, -1, 0), ("b.y", 1.0, 4.0, 0, 0),
                    ("b.y", 5.0, 6.0, 0, 0), ("a.x", 2.0, 3.0, 1, 0)]
    st = tracer.self_times()
    assert st["self_s"]["a.x"] == pytest.approx(6.0 + 1.0)
    assert st["self_s"]["b.y"] == pytest.approx(2.0 + 1.0)
    assert st["entries"]["b.y"] == 2


def test_speed_clock_disarms_its_timer():
    import signal
    import time

    clock = run.SpeedClock()
    clock.start()
    time.sleep(3 * clock.TICK_S)
    work = clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert work > 0 and clock.wall > 2 * clock.TICK_S


def _per_layer_names() -> set:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer"]}


def test_runner_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-mix",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
