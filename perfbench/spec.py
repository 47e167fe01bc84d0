"""What each workload runs, and what each per-layer metric should move.

The rates, limits and phase shares are frozen here: a change that claims
a gain is measured against these exact settings. ``LAYER_MOVES`` is the
prediction table a performance change states its claim against: per-layer
metric -> (the end-to-end metrics it should move, the workloads it
should move them on). The self-test checks that it names exactly the
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve import DEFAULT_SHAPES, MIXED_SHAPES


@dataclass(frozen=True)
class Step:
    """One timed step: ``share`` of ``--seconds`` at ``rate`` req/s."""

    name: str
    share: float
    rate: float = 0.0


@dataclass(frozen=True)
class Serving:
    """A serving workload's frozen settings."""

    shapes: tuple
    processes: int
    panel_cache_bytes: int | None
    fault_rate: float


#: every service's thread-tier worker count
WORKERS = 2
#: shared operands per shareable shape class (Zipf-drawn)
POOL = 4
#: errors in each fault plan of the fault pass
ERRORS_PER_CALL = 2


#: gemm-large: square size of one caller's back-to-back calls
GEMM_N = 1024
#: distinct operand pairs the caller cycles through
GEMM_PAIRS = 3
#: latency limit of slo_share.heavy on gemm-large (ms per call): about
#: four times the call's p99 on a 2-vCPU host, so the share moves only
#: on a regression
GEMM_SLO_MS = 500.0

#: set-ups per gemm-large run and per traced serving run; setup_s is
#: their median
SETUPS = 5

#: timed rounds of a serving run; each round runs every step once, in
#: order, on a service set up for the round (setup_s is the median of
#: the rounds' set-ups)
ROUNDS = 8

#: the open-loop steps of a serving run. light and heavy sit well below
#: the thread tier's knee (near 800 req/s on a 2-vCPU host, where the
#: median latency doubles); below ~200 req/s the host's idle wake-ups
#: make the median swing from run to run. overload offers more than the
#: thread tier answers (1500-3000 req/s here, 4200 at best seen)
SERVING_STEPS = (Step("light", 0.35, 250.0), Step("heavy", 0.35, 400.0),
                 Step("overload", 0.3, 6000.0))
#: requests with operands of their own per overload round (the rest of
#: the round's requests share theirs)
OVERLOAD_DISTINCT = 500

SERVING = {
    "serve-small": Serving(
        shapes=DEFAULT_SHAPES,
        processes=0,
        panel_cache_bytes=8 << 20,
        fault_rate=0.0,
    ),
}
#: latency limit of slo_share.heavy on a serving workload (ms, timed
#: from due time): about twelve times the median; the p99 reaches 10-30
#: ms on a host with a busy neighbour
SERVE_SLO_MS = 50.0

#: the rate of the process-tier and fault passes (req/s): below the
#: process tier's knee (~170 req/s on a 2-vCPU host)
PASS_RATE = 120.0

#: the process tier, measured in serve-small's traced run: its mix on
#: processes=2. (As a timed workload of its own, "serve-proc", it was
#: dropped: see the README.)
PROC = Serving(
    shapes=DEFAULT_SHAPES,
    processes=2,
    panel_cache_bytes=8 << 20,
    fault_rate=0.0,
)

#: the fault path and the non-GEMM kernels, measured in serve-small's
#: traced run: MIXED_SHAPES (GEMM, GEMV, TRSM, FFT) on the thread tier
#: with the cache off, one request in ten per shape class carrying a
#: 2-error plan. (As a timed workload of its own, "serve-faults", it was
#: dropped: see the README.)
FAULTS = Serving(
    shapes=MIXED_SHAPES,
    processes=0,
    panel_cache_bytes=None,
    fault_rate=0.1,
)

WORKLOADS = ("gemm-large", *SERVING)

_LIGHT = ("latency_ms_p25.light",)
_LATENCY = ("latency_ms_p25.light", "latency_ms_p25.heavy")
_GEMM = (_LATENCY, ("gemm-large",))
_SERVE = ("serve-small",)
#: the process-tier and fault passes' layers: no timed workload serves on
#: processes, faults or non-GEMM kernels, so they predict no end-to-end
#: metric; they are watched
_PASS = ((), _SERVE)

#: per-layer metric -> (end-to-end metrics it should move, workloads)
LAYER_MOVES = {
    "numpy.matmul_ms_p50": ((), ("gemm-large",)),
    "gemm.unprotected_ms_p50": _GEMM,
    "gemm.encode_b_ms_p50": _GEMM,
    "gemm.pack_a_ms_p50": _GEMM,
    "abft.ref_checksum_ms_p50": _GEMM,
    "core.ft_overhead_pct": _GEMM,
    "core.checksum_flops": _GEMM,
    "core.ft_extra_bytes": _GEMM,
    "gemm.pack_bytes": _GEMM,
    "gemm.microkernel_calls": _GEMM,
    "core.small_call_us_p50": (_LIGHT, _SERVE),
    "serve.submit_us_p50": (_LATENCY, _SERVE),
    "serve.non_gemm_share.light": (_LIGHT, _SERVE),
    "serve.batch_size_mean": (("latency_ms_p25.heavy",), _SERVE),
    "serve.coalesced_share": (("latency_ms_p25.heavy",), _SERVE),
    "gemm.panel_cache_hit_ratio": (("latency_ms_p25.heavy",), _SERVE),
    "gemm.shared_b_share": ((), _SERVE),
    "gen.late_ms_p99": (_LATENCY, _SERVE),
    "serve.proc.pipe_bytes_per_req": _PASS,
    "serve.proc.shm_bytes_per_req": _PASS,
    "serve.proc.b_cache_hit_ratio": _PASS,
    "serve.proc.deaths": _PASS,
    "serve.proc.respawns": _PASS,
    "serve.proc.spawn_s": _PASS,
    "kernels.gemv_us_p50": _PASS,
    "kernels.trsm_us_p50": _PASS,
    "kernels.fft_us_p50": _PASS,
    "core.faulted_call_ms_p50": _PASS,
    "faults.injected": _PASS,
    "core.errors_detected": _PASS,
    "core.errors_corrected": _PASS,
    "serve.retries": _PASS,
    "serve.quarantined": _PASS,
    "serve.degraded_batches": _PASS,
    "serve.attempts_mean": _PASS,
    "serve.recovered_share": _PASS,
    "phase.pack_ms": _GEMM,
    "phase.compute_ms": _GEMM,
    "phase.checksum_ms": _GEMM,
    "phase.verify_ms": _GEMM,
    "phase.recover_ms": ((), ("gemm-large",)),
    "phase.other_ms": (_LATENCY, WORKLOADS),
    "phase.total_ms": _GEMM,
    "obs.trace_overhead_pct": ((), WORKLOADS),
    "serve.stage.submit_ms": (_LIGHT, _SERVE),
    "serve.stage.execute_ms": (_LIGHT, _SERVE),
    "serve.stage.wait_ms": (_LATENCY, _SERVE),
}
