"""Self-test of the benchmark (run: ``python3 -m pytest perfbench -q``).

- every workload, at a tiny length and in both modes, emits every metric
  of BENCHMARK.json with its unit and passes its own audit;
- the same seed builds byte-identical schedules and operands, another
  seed different ones;
- each traced call's phase sum stays within its root span (a tracer
  reused across calls would break this, and the check catches it);
- a shared-memory segment leaked by the process tier fails the command;
- without the program's sources the command fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.core import FTGemm, FTGemmConfig  # noqa: E402
from repro.obs import phase_totals  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_contract_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(spec.WORKLOADS)
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert "setup_s" in e2e
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in BENCH["end_to_end"]) == next(
        m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")


def test_every_layer_metric_names_what_it_moves():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert list(spec.LAYER_MOVES) == [m["name"] for m in BENCH["per_layer"]]
    for name, (moves, where) in spec.LAYER_MOVES.items():
        assert set(moves) <= e2e, name
        assert where and set(where) <= set(spec.WORKLOADS), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in BENCH["end_to_end"] if not trace else ():
        assert last["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_seed_fixes_schedule_and_operands(workload):
    first = workloads.inputs_digest(workload, 5, 2.0)
    assert workloads.inputs_digest(workload, 5, 2.0) == first
    assert workloads.inputs_digest(workload, 6, 2.0) != first


def _small_requests():
    w = spec.SERVING["serve-small"]
    inputs = workloads.serving_inputs(w, 1, 1.0)
    return [r for _, r in inputs.probes if r.kernel == "gemm"][:6]


def test_traced_calls_keep_phase_sums_within_root_span():
    audit = layers.Audit()
    metrics, events = layers.traced_calls(_small_requests(), 0.2, audit)
    assert audit.problems == [] and audit.checked >= layers.MIN_REPS
    assert events
    leaf = sum(metrics[f"phase.{c}_ms"] for c in
               ("pack", "compute", "checksum", "verify", "recover"))
    assert leaf <= metrics["phase.total_ms"] * (1 + 1e-9)


def test_a_reused_tracer_breaks_the_per_call_split():
    """Why the probe builds a fresh driver per call: one traced driver
    keeps events across calls, and ``phase_totals`` then sums every
    call's phases against a single call's root span."""
    driver = FTGemm(FTGemmConfig(trace=True))
    for r in _small_requests()[:3]:
        result = driver.gemm(r.a, r.b)
    roots = [e.dur_us / 1e6 for e in result.trace.events
             if e.ph == "X" and e.cat == "driver" and e.name == "gemm"]
    totals = phase_totals(result.trace.events)
    assert len(roots) == 3
    assert totals["total"] == max(roots) < sum(roots)


def test_a_leaked_segment_fails_the_command(monkeypatch, capsys):
    """The pool's retirement unlinks every segment still registered, so
    nothing is live after a drain; the audit must count what that final
    sweep had to clean up."""
    import run as command

    start = workloads._start

    def leaky_start(w, inputs, *, trace=False):
        service, warm, spawn_s = start(w, inputs, trace=trace)
        if w.processes:
            service.pool.registry.create(64).close()
        return service, warm, spawn_s

    monkeypatch.setattr(workloads, "_start", leaky_start)
    # the process tier runs in the traced run's process-tier pass
    code = command.main(["--workload", "serve-small", "--seed", "3",
                         "--seconds", "1", "--trace", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "shm segments leaked" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("serve-small", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
