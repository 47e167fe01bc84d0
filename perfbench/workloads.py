"""The workloads: set up, drive, audit, measure.

``run(name, seed, seconds, trace)`` returns a :class:`Run` holding the
metric values (by BENCHMARK.json name), the operation tally and every
correctness problem found. With ``trace=False`` it measures the
end-to-end metrics with tracing off; with ``trace=True`` it is the
separate traced run that reports the per-layer metrics.

A per-layer metric that ``spec.LAYER_MOVES`` does not place on the
workload (the service, the process tier and the fault path on
``gemm-large``) reads 0 unless the workload measures it anyway.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import FTGemm
from repro.serve import (
    GemmService,
    ServiceConfig,
    WorkloadConfig,
    make_injector_factory,
)

import layers
import spec
import traffic
from layers import pct


@dataclass
class Run:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: request/call counts per step, for the printed report
    samples: dict[str, int] = field(default_factory=dict)
    #: Chrome trace events of the traced run, written out at the end
    spans: list[dict] = field(default_factory=list)
    #: figures printed and saved next to the metrics but not gated: the
    #: medians and tails that a busy neighbour on the host moves too far
    #: (see the README)
    extra: dict[str, float] = field(default_factory=dict)

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_gc() -> None:
    """Collect, then move the run's pre-built inputs out of the collector's
    view, so a collection pass inside a timed window does not scan the
    benchmark's own thousands of prepared requests."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------- gemm-large
def _gemm_close(c, ref) -> bool:
    """``traffic.answer_ok`` against a precomputed product (the oracle
    would redo the 2n^3 product for every call)."""
    scale = float(np.max(np.abs(ref))) + 1.0
    return float(np.max(np.abs(c - ref))) <= traffic.AUDIT_RTOL * scale


def _caller(driver, pairs, refs, end, start_index, out, bad) -> None:
    """One library caller: back-to-back protected calls until ``end``."""
    i = start_index
    while time.perf_counter() < end:
        a, b = pairs[i % len(pairs)]
        t0 = time.perf_counter()
        result = driver.gemm(a, b)
        out.append(time.perf_counter() - t0)
        ref = refs[i % len(pairs)]
        if not (result.verified and _gemm_close(result.c, ref)):
            bad.append(i)
        i += 1


def gemm_inputs(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    n = spec.GEMM_N
    rng = np.random.default_rng([seed, 7])
    return [(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(spec.GEMM_PAIRS)]


def gemm_large(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    n = spec.GEMM_N
    pairs = gemm_inputs(seed)
    refs = [a @ b for a, b in pairs]
    if trace:
        return _gemm_large_layers(run, pairs, seconds)

    setups = []
    for _ in range(spec.SETUPS):
        t0 = time.perf_counter()
        driver = FTGemm()
        warm = driver.gemm(*pairs[0])
        setups.append(time.perf_counter() - t0)
        run.tally(1, 0 if _gemm_close(warm.c, refs[0]) else 1)
    if run.failed:
        run.problems.append(f"{run.failed} warm-up calls wrong")
    _fresh_gc()

    calls, bad = [], []
    _caller(driver, pairs, refs, time.perf_counter() + seconds, 0, calls,
            bad)
    gc.unfreeze()
    run.tally(len(calls), len(bad))
    if bad:
        run.problems.append(f"{len(bad)} gemm-large calls wrong")
    calls_ms = [t * 1e3 for t in calls]
    run.samples = {"calls": len(calls)}
    p25, p50 = pct(calls_ms, 25), pct(calls_ms, 50)

    # one closed-loop caller: its latency is its call time, and it has
    # no heavier load, so the light and heavy figures are the same calls
    run.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_share": 1.0 - run.failed / run.attempted,
        "latency_ms_p25.light": p25,
        "latency_ms_p25.heavy": p25,
        # a wrong answer counts as a miss
        "slo_share.heavy": max(0, sum(
            1 for t in calls_ms if t <= spec.GEMM_SLO_MS) - len(bad)
        ) / len(calls_ms),
    })
    run.extra.update({
        # the paper's unit
        "gflops": 2.0 * n ** 3 / (p50 * 1e-3) / 1e9,
        "goodput_rps": (len(calls) - len(bad)) / sum(calls),
    })
    run.extra.update(_tails(calls_ms, "call_ms", qs=(50, 90, 99)))
    return run


def _tails(values_ms, name: str, suffix: str = "", *, qs) -> dict:
    out = {f"{name}_p{q}{suffix}": pct(values_ms, q) for q in qs}
    out[f"{name}_mean{suffix}"] = statistics.fmean(values_ms)
    return out


def _gemm_large_layers(run: Run, pairs, seconds: float) -> Run:
    from repro.serve.request import GemmRequest

    requests = [GemmRequest(a, b) for a, b in pairs]
    key = (spec.GEMM_N,) * 3
    audit = layers.Audit()
    _fresh_gc()
    run.metrics.update(
        layers.gemm_ladder(requests, {key: 1.0}, 0.6 * seconds, audit))
    traced, events = layers.traced_calls(requests, 0.4 * seconds, audit)
    gc.unfreeze()
    run.metrics.update(traced)
    run.spans.extend(e.to_chrome() for e in events)
    _record_audit(audit, run)
    return run


def _record_audit(audit: layers.Audit, run: Run) -> None:
    run.tally(audit.checked, len(audit.problems))
    run.problems.extend(audit.problems)


# ------------------------------------------------------------------- serving
def _service_config(w: spec.Serving, *, trace: bool = False) -> ServiceConfig:
    return ServiceConfig(
        workers=spec.WORKERS,
        processes=w.processes,
        panel_cache_bytes=w.panel_cache_bytes,
        trace=trace,
    )


class _Faults:
    """Injector factory for the fault pass: of every shape class in a
    step, exactly one request in every ``1 / fault_rate`` consecutive ones
    (at a seeded position) gets a plan on its first attempt. Plan and
    bit-flip / stuck-bit split come from ``make_injector_factory``; every
    injector handed out is kept so faults can be counted per request."""

    def __init__(self, w: spec.Serving, seed: int) -> None:
        self.base = make_injector_factory(WorkloadConfig(
            fault_rate=1.0, errors_per_call=spec.ERRORS_PER_CALL, seed=seed,
            shapes=w.shapes))
        self.block = round(1.0 / w.fault_rate)
        self.rng = np.random.default_rng([seed, 99])
        self.chosen: set[str] = set()
        self.by_request: dict[str, list] = {}

    def select(self, requests) -> None:
        classes: dict[tuple, list] = {}
        for r in requests:
            classes.setdefault((r.kernel, r.shape), []).append(r)
        for mine in classes.values():
            for start in range(0, len(mine), self.block):
                span = min(self.block, len(mine) - start)
                pick = start + int(self.rng.integers(span))
                self.chosen.add(mine[pick].request_id)

    def __call__(self, shape, attempt, request_id, config, *kernel):
        if request_id not in self.chosen:
            return None
        injector = self.base(shape, attempt, request_id, config, *kernel)
        if injector is not None:
            self.by_request.setdefault(request_id, []).append(injector)
        return injector


@dataclass
class ServingInputs:
    """Everything a serving run feeds the program, built from the seed."""

    mix: traffic.Mix
    #: (class index, request) pairs the per-layer probes call directly
    probes: list
    phases: list[traffic.Phase]
    faults: _Faults | None


def serving_inputs(w: spec.Serving, seed: int, seconds: float, *,
                   trace: bool = False, rate: float | None = None
                   ) -> ServingInputs:
    mix = traffic.Mix(w.shapes, spec.POOL, seed)
    if trace:
        # the traced run: an untraced and a traced pass, at the light rate
        # unless ``rate`` is given
        light = next(s for s in spec.SERVING_STEPS if s.name == "light")
        rate = rate or light.rate
        steps = [spec.Step("light", 0.5 * light.share, rate),
                 spec.Step("traced", 0.3 * light.share, rate)]
        phases = [traffic.phase(mix, s.name, 10 + i, s.rate,
                                s.share * seconds)
                  for i, s in enumerate(steps)]
    else:
        # the steps are interleaved in ROUNDS rounds, so a slow spell of
        # the host lands on every step alike instead of on one of them
        length = seconds / spec.ROUNDS
        phases = [
            traffic.phase(mix, f"{s.name}.{r}", 100 * r + 10 + i, s.rate,
                          s.share * length,
                          distinct=spec.OVERLOAD_DISTINCT
                          if s.name == "overload" else None)
            for r in range(spec.ROUNDS)
            for i, s in enumerate(spec.SERVING_STEPS)
        ]
    faults = _Faults(w, seed) if w.fault_rate > 0 else None
    if faults is not None:
        for ph in phases:
            faults.select(ph.requests)
    return ServingInputs(mix, mix.labelled(2, 200), phases, faults)


def inputs_digest(name: str, seed: int, seconds: float) -> str:
    """sha256 of a run's schedule and operands (determinism self-test)."""
    if name == "gemm-large":
        h = hashlib.sha256()
        for a, b in gemm_inputs(seed):
            h.update(a.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()
    inputs = serving_inputs(spec.SERVING[name], seed, seconds)
    probes = traffic.Phase("probes", 0.0, np.zeros(0),
                           [r for _, r in inputs.probes])
    return traffic.digest(probes, *inputs.phases, mix=inputs.mix)


def _start(w: spec.Serving, inputs: ServingInputs, *, trace: bool = False):
    """Construct, start and warm one service; returns (service, warm-up
    sends, spawn seconds). Spawn ends when every worker process has
    beaten once."""
    service = GemmService(_service_config(w, trace=trace),
                          injector_factory=inputs.faults)
    t0 = time.perf_counter()
    service.start()
    spawn_s = 0.0
    if w.processes:
        board = service.pool.board
        deadline = t0 + 60.0
        while any(board.beats(k) == 0 for k in board.keys()):
            if time.perf_counter() > deadline:
                raise RuntimeError("worker processes did not boot in 60 s")
            time.sleep(0.002)
        spawn_s = time.perf_counter() - t0
    warm = [traffic.send(service, r, time.perf_counter())
            for r in inputs.mix.warmup()]
    for s in warm:
        s.finished.wait(60.0)
    return service, warm, spawn_s


def _timed_setup(w, inputs: ServingInputs, run: Run, *, keep: bool):
    """One timed set-up (construct, start, boot, warm-up); the service is
    drained again unless ``keep``. Returns (service, requests submitted,
    set-up seconds, spawn seconds)."""
    others = set(multiprocessing.active_children())
    t0 = time.perf_counter()
    service, warm, spawn_s = _start(w, inputs)
    setup_s = time.perf_counter() - t0
    out = traffic.collect("warmup", warm)
    _record(out, run)
    if not keep:
        _retire(service, run, out.attempted, others=others)
    return service, out.attempted, setup_s, spawn_s


def _setups(w, inputs: ServingInputs, run: Run):
    """``spec.SETUPS`` timed set-ups; the last service is kept running.
    Returns (service, requests submitted to it, median set-up seconds,
    median spawn seconds)."""
    times, spawns = [], []
    for i in range(spec.SETUPS):
        service, submitted, setup_s, spawn_s = _timed_setup(
            w, inputs, run, keep=i == spec.SETUPS - 1)
        times.append(setup_s)
        spawns.append(spawn_s)
    return (service, submitted, statistics.median(times),
            statistics.median(spawns))


def _retire(service, run: Run, submitted: int, *, others=frozenset()) -> dict:
    """Drain and run the exactly-once / leak audit; returns stats().
    ``others`` are processes of services still running, which this
    service's drain must leave alone."""
    service.drain()
    stats = service.stats()
    answered = sum(stats["completed"].values())
    if stats["duplicates"]:
        run.problems.append(f"{stats['duplicates']} duplicate answers")
    if answered != submitted:
        run.problems.append(
            f"{submitted} requests submitted but {answered} answered")
    # the pool's retirement unlinks every segment still registered, so
    # ``live`` always reads 0 after a drain; what that final sweep had to
    # clean up is the leak, recorded in this gauge
    leaked = stats["metrics"]["gauges"].get("serve.proc.leaked_segments", 0)
    if "proc" in stats:
        leaked += stats["proc"]["segments"]["live"]
    if leaked:
        run.problems.append(f"{int(leaked)} shm segments leaked")
    alive = [p for p in multiprocessing.active_children() if p not in others]
    if alive:
        run.problems.append(f"{len(alive)} worker processes outlived drain")
        for child in alive:
            child.terminate()
            child.join(10.0)
    return stats


def _record(out: traffic.Outcome, run: Run) -> None:
    run.tally(out.attempted, out.failed)
    if out.failed:
        run.problems.append(
            f"{out.name}: {out.lost} lost, {out.wrong} wrong, statuses "
            f"{out.statuses} of {out.attempted}")


def serving(name: str, seed: int, seconds: float, trace: bool) -> Run:
    w = spec.SERVING[name]
    run = Run()
    inputs = serving_inputs(w, seed, seconds, trace=trace)
    if trace:
        return _serving_layers(name, inputs, seed, seconds, run)
    # every round sets up a fresh service, drives the open-loop steps on
    # it and drains it again: the host's speed swings from second to
    # second, so each step is spread over the run and over ROUNDS services.
    # Each step's outcome is reduced to its figures as soon as it is
    # collected, so the run's memory does not grow with the requests sent
    setups = []
    latency = {"light": [], "heavy": []}
    heavy_attempted = good = 0
    good_flops = over_s = 0.0
    per_round = len(inputs.phases) // spec.ROUNDS
    for r in range(spec.ROUNDS):
        _fresh_gc()
        service, submitted, setup_s, _ = _timed_setup(w, inputs, run,
                                                      keep=True)
        setups.append(setup_s)
        _fresh_gc()
        for ph in inputs.phases[r * per_round:(r + 1) * per_round]:
            step = ph.name.split(".")[0]
            t0, sent = traffic.drive(service, ph,
                                     stop_at_window=step == "overload")
            out = traffic.collect(ph.name, sent)
            submitted += len(sent)
            _record(out, run)
            if step == "overload":
                done = [s.request for s in out.ok
                        if s.done <= t0 + ph.seconds]
                good += len(done)
                good_flops += sum(2.0 * q.m * q.n * q.k for q in done)
                over_s += ph.seconds
                continue
            latency[step].extend(out.latency_ms)
            if step == "heavy":
                heavy_attempted += out.attempted
        _retire(service, run, submitted)
    gc.unfreeze()

    light, heavy = latency["light"], latency["heavy"]
    run.samples.update({"light": len(light), "heavy": len(heavy),
                        "overload": good})
    run.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_share": 1.0 - run.failed / run.attempted,
        "latency_ms_p25.light": pct(light, 25),
        "latency_ms_p25.heavy": pct(heavy, 25),
        # a failed request is a miss: the denominator is every attempt
        "slo_share.heavy": sum(1 for t in heavy if t <= spec.SERVE_SLO_MS)
        / heavy_attempted,
    })
    run.extra.update({
        "goodput_rps": good / over_s,
        "gflops": good_flops / over_s / 1e9,
    })
    run.extra.update(_tails(light, "latency_ms", ".light", qs=(50, 90, 99)))
    run.extra.update(_tails(heavy, "latency_ms", ".heavy", qs=(50, 90, 99)))
    return run


def _serving_layers(name, inputs: ServingInputs, seed, seconds, run) -> Run:
    w = spec.SERVING[name]
    untraced_ph, traced_ph = inputs.phases
    mix = inputs.mix
    gemms = [r for _, r in inputs.probes if r.kernel == "gemm"]
    counts = {}
    for r in gemms:
        key = (r.m, r.k, r.n)
        counts[key] = counts.get(key, 0) + 1
    weights = {k: v / len(gemms) for k, v in counts.items()}

    # the probes first, while no service runs in the process
    audit = layers.Audit()
    _fresh_gc()
    m = run.metrics
    m.update(layers.gemm_ladder(gemms, weights, 0.15 * seconds, audit))

    service, submitted, _, _ = _setups(w, inputs, run)
    _fresh_gc()
    _, sent = traffic.drive(service, untraced_ph)
    out = traffic.collect("light", sent)
    submitted += len(sent)
    _record(out, run)
    run.samples["light"] = len(out.latency_ms)
    gc.unfreeze()
    stats = _retire(service, run, submitted)

    sched = stats["scheduler"]
    executed = sched["coalesced_requests"] + sched["singleton_batches"]
    cache = stats.get("panel_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    gemm_sent = [s.request for s in out.sent if s.request.kernel == "gemm"]
    m.update({
        "serve.submit_us_p50": pct(out.submit_us, 50),
        "serve.non_gemm_share.light":
            1.0 - m["core.small_call_us_p50"] / 1e3 / pct(out.latency_ms, 50),
        "serve.batch_size_mean": executed / max(1, sched["batches"]),
        "serve.coalesced_share":
            sched["coalesced_requests"] / max(1, executed),
        "gemm.panel_cache_hit_ratio": cache.get("hits", 0) / max(1, lookups),
        "gemm.shared_b_share":
            sum(map(mix.is_shared, gemm_sent)) / max(1, len(gemm_sent)),
        "gen.late_ms_p99": pct(out.late_ms, 99),
    })
    m.update(_traced_serving(w, inputs, traced_ph, run))
    m.update(_proc_pass(seed, seconds, run))
    m.update(_fault_pass(seed, seconds, run, audit))
    traced, events = layers.traced_calls(gemms, 0.1 * seconds, audit)
    m.update(traced)
    run.spans.extend(e.to_chrome() for e in events)
    _record_audit(audit, run)
    return run


def _proc_pass(seed: int, seconds: float, run: Run) -> dict:
    """The process tier: the serving mix and seed at ``spec.PASS_RATE`` on
    ``spec.PROC`` (processes=2), after ``spec.SETUPS`` timed set-ups whose
    median spawn is ``serve.proc.spawn_s``. Every answer is audited, and
    the drain checks for lost or duplicated answers and leaked shm
    segments."""
    w = spec.PROC
    inputs = serving_inputs(w, seed, seconds, trace=True,
                            rate=spec.PASS_RATE)
    ph = inputs.phases[0]
    service, submitted, _, spawn_s = _setups(w, inputs, run)
    _fresh_gc()
    _, sent = traffic.drive(service, ph)
    _record(traffic.collect("proc", sent), run)
    submitted += len(sent)
    # parent-side counters, read before the drain merges the children's
    # own copies in
    counters = service.stats()["metrics"]["counters"]
    gc.unfreeze()
    _retire(service, run, submitted)
    run.samples["proc"] = len(sent)
    n_req = max(1, submitted)
    return {
        "serve.proc.pipe_bytes_per_req": (
            counters.get("serve.proc.pipe_tx_bytes", 0)
            + counters.get("serve.proc.pipe_rx_bytes", 0)) / n_req,
        "serve.proc.shm_bytes_per_req":
            counters.get("serve.proc.shm_bytes", 0) / n_req,
        "serve.proc.b_cache_hit_ratio":
            counters.get("serve.proc.b_cache_hits", 0)
            / max(1, counters.get("serve.proc.batches", 0)),
        "serve.proc.deaths": counters.get("serve.proc.deaths", 0),
        "serve.proc.respawns": counters.get("serve.proc.respawns", 0),
        "serve.proc.spawn_s": spawn_s,
    }


def _fault_pass(seed: int, seconds: float, run: Run,
                audit: layers.Audit) -> dict:
    """The fault path and the non-GEMM kernels: ``spec.FAULTS`` traffic
    (``MIXED_SHAPES``, one request in ten per shape class carrying a
    2-error plan) at ``spec.PASS_RATE`` on a fresh thread-tier service, plus
    the kernel and faulted-call probes on its requests. Every answer is
    audited, so a wrong verified answer fails the run."""
    w = spec.FAULTS
    inputs = serving_inputs(w, seed, seconds, trace=True,
                            rate=spec.PASS_RATE)
    ph = inputs.phases[0]
    requests = [r for _, r in inputs.probes]
    kernel_us = layers.kernel_calls(requests, 0.05 * seconds, audit)
    m = {f"kernels.{k}_us_p50": kernel_us[k] for k in ("gemv", "trsm", "fft")}
    m["core.faulted_call_ms_p50"] = layers.faulted_calls(
        [r for r in requests if r.kernel == "gemm"], spec.ERRORS_PER_CALL, seed,
        0.05 * seconds, audit)
    service, submitted, _, _ = _timed_setup(w, inputs, run, keep=True)
    _, sent = traffic.drive(service, ph)
    out = traffic.collect("faults", sent, keep_answers=True)
    _record(out, run)
    run.samples["faults"] = len(out.latency_ms)
    stats = _retire(service, run, submitted + len(sent))
    m.update(_fault_counts(out, inputs.faults, stats))
    return m


def _fault_counts(out: traffic.Outcome, faults: _Faults | None,
                  stats: dict) -> dict:
    """Fault-path counts over the requests of one driven step."""
    plans = faults.by_request if faults is not None else {}
    injected = detected = corrected = faulted = recovered = 0
    for s in out.sent:
        mine = plans.get(s.request.request_id, ())
        injected += sum(i.n_injected for i in mine)
        faulted += bool(mine)
        response = s.response
        if response is None or not response.ok:
            continue
        detected += response.result.detected
        corrected += response.result.corrected
        recovered += bool(mine)
    counters = stats["metrics"]["counters"]
    attempts = stats["metrics"]["histograms"].get("serve.attempts", {})
    return {
        "faults.injected": injected,
        "core.errors_detected": detected,
        "core.errors_corrected": corrected,
        "serve.retries": counters.get("serve.retries", 0),
        "serve.quarantined": len(stats["quarantined_workers"]),
        "serve.degraded_batches": counters.get("serve.degraded_batches", 0),
        "serve.attempts_mean": attempts.get("mean", 0.0),
        "serve.recovered_share": recovered / faulted if faulted else 1.0,
    }


def _traced_serving(w, inputs: ServingInputs, ph, run: Run) -> dict:
    """A traced service at the light rate; the benchmark adds its own
    ``bench.submit`` spans around each submit. Returns the serving-stage
    self times per request (ms): submit, execution (the batch span each
    request waited in) and the rest of the request's lifetime."""
    service, warm, _ = _start(w, inputs, trace=True)
    _record(traffic.collect("warmup", warm), run)
    tracer = service.tracer
    _, sent = traffic.drive(service, ph, tracer=tracer)
    _record(traffic.collect("traced", sent), run)
    _retire(service, run, len(warm) + len(sent))
    run.spans.extend(e.to_chrome() for e in tracer.events)
    requests = tracer.spans("serve.request")
    n = max(1, len(requests))
    life = sum(e.dur_us for e in requests)
    submit = sum(e.dur_us for e in tracer.spans("bench.submit"))
    execute = sum(e.dur_us * e.args.get("size", 1)
                  for e in tracer.spans("serve.batch"))
    return {
        "serve.stage.submit_ms": submit / n / 1e3,
        "serve.stage.execute_ms": execute / n / 1e3,
        "serve.stage.wait_ms": max(0.0, life - execute) / n / 1e3,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Run:
    if name == "gemm-large":
        result = gemm_large(seed, seconds, trace)
    elif name in spec.SERVING:
        result = serving(name, seed, seconds, trace)
    else:
        raise KeyError(
            f"unknown workload {name!r}; choose from {spec.WORKLOADS}")
    if trace:
        # a layer that spec.LAYER_MOVES does not place on this workload
        # (the service on gemm-large) reads 0
        for metric, (_, where) in spec.LAYER_MOVES.items():
            if name not in where:
                result.metrics.setdefault(metric, 0.0)
    return result
