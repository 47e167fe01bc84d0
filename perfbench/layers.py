"""Per-layer probes: timed calls into the public functions of each layer.

Every probe times a library function from outside — nothing here
patches or instruments the program. A probe cycles through the
workload's own requests until its time budget is spent (at least
``MIN_REPS`` calls), so the same code serves an n = 1024 GEMM and a
24x32x32 one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.abft import col_checksum, row_checksum
from repro.core import FTGemm, FTGemmConfig
from repro.faults import FaultInjector
from repro.faults.campaign import plan_for_gemm
from repro.gemm import encode_b, iter_blocks, pack_a
from repro.kernels import get_kernel
from repro.obs import phase_totals
from repro.obs.report import PHASE_CATS

import traffic

MIN_REPS = 3


class Audit:
    """Probe answers checked against their kernel's oracle."""

    def __init__(self) -> None:
        self.checked = 0
        self.problems: list[str] = []

    def check(self, what: str, request, c) -> None:
        self.checked += 1
        if not traffic.answer_ok(request, c):
            self.problems.append(
                f"{what}: wrong answer for {request.kernel} {request.shape}")


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def sample(calls, budget_s: float) -> list[float]:
    """Seconds per call of ``calls[i % len(calls)]()`` over ``budget_s``."""
    out = []
    end = time.perf_counter() + budget_s
    i = 0
    while len(out) < MIN_REPS or time.perf_counter() < end:
        fn = calls[i % len(calls)]
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
        i += 1
    return out


def sample_pairs(first, second, budget_s: float) -> tuple[list, list]:
    """Alternate two call lists so drift hits both sides equally."""
    a, b = [], []
    end = time.perf_counter() + budget_s
    i = 0
    while len(a) < MIN_REPS or time.perf_counter() < end:
        for fns, out in ((first, a), (second, b)):
            fn = fns[i % len(fns)]
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        i += 1
    return a, b


def gemm_ladder(requests, weights, budget_s: float, audit: Audit) -> dict:
    """numpy ``@`` -> FT-off -> FT-on, the pieces of the fused passes,
    and the counters of one protected call per shape class.

    ``requests`` are GEMM requests of the workload; ``weights`` maps each
    distinct (m, k, n) class to its share of the workload's GEMMs (the
    counters are their weighted mean per call).
    """
    on, off = FTGemm(), FTGemm(FTGemmConfig.unprotected())
    blocking = on.ft_config.blocking
    pairs = [(r.a, r.b) for r in requests]

    def pack_all(a):
        for i0, ilen in iter_blocks(a.shape[0], blocking.mc):
            for p0, plen in iter_blocks(a.shape[1], blocking.kc):
                pack_a(a[i0:i0 + ilen, p0:p0 + plen], blocking.mr)

    products = [a @ b for a, b in pairs]
    share = budget_s / 5.0
    t_np = sample([lambda a=a, b=b: a @ b for a, b in pairs], share)
    t_off, t_on = sample_pairs(
        [lambda a=a, b=b: off.gemm(a, b) for a, b in pairs],
        [lambda a=a, b=b: on.gemm(a, b) for a, b in pairs],
        2 * share,
    )
    t_enc = sample([lambda b=b: encode_b(b, blocking) for _, b in pairs],
                   share / 2)
    t_pack = sample([lambda a=a: pack_all(a) for a, _ in pairs], share / 4)
    t_sum = sample([lambda c=c: (row_checksum(c), col_checksum(c))
                    for c in products], share / 4)

    counts = dict.fromkeys(("checksum_flops", "ft_extra_bytes",
                            "pack_bytes", "microkernel_calls"), 0.0)
    seen = {}
    for r in requests:
        key = (r.m, r.k, r.n)
        if key not in seen:
            result = on.gemm(r.a, r.b)
            audit.check("protected call", r, result.c)
            seen[key] = result.counters
    for key, c in seen.items():
        w = weights[key]
        counts["checksum_flops"] += w * c.checksum_flops
        counts["ft_extra_bytes"] += w * c.ft_extra_bytes
        counts["pack_bytes"] += w * (c.pack_a_bytes + c.pack_b_bytes)
        counts["microkernel_calls"] += w * c.microkernel_calls
    p50_on, p50_off = pct(t_on, 50), pct(t_off, 50)
    return {
        "numpy.matmul_ms_p50": pct(t_np, 50) * 1e3,
        "gemm.unprotected_ms_p50": p50_off * 1e3,
        "gemm.encode_b_ms_p50": pct(t_enc, 50) * 1e3,
        "gemm.pack_a_ms_p50": pct(t_pack, 50) * 1e3,
        "abft.ref_checksum_ms_p50": pct(t_sum, 50) * 1e3,
        "core.ft_overhead_pct": (p50_on / p50_off - 1.0) * 100.0,
        "core.small_call_us_p50": p50_on * 1e6,
        "core.checksum_flops": counts["checksum_flops"],
        "core.ft_extra_bytes": counts["ft_extra_bytes"],
        "gemm.pack_bytes": counts["pack_bytes"],
        "gemm.microkernel_calls": counts["microkernel_calls"],
    }


def traced_calls(requests, budget_s: float,
                 audit: Audit) -> tuple[dict, list]:
    """Phase split of protected calls, each on a fresh traced driver.

    A driver's tracer keeps its events across calls, and ``phase_totals``
    then sums every call against the longest root span; a fresh driver
    (hence a fresh tracer) per call keeps each split to its own call.
    Untraced calls are interleaved for the tracing overhead. A call whose
    phase sum exceeds its root span is an audit problem. Returns the
    metrics and the last call's trace events.
    """
    untraced = FTGemm()
    phases = {cat: [] for cat in (*PHASE_CATS, "other", "total")}
    t_traced, t_plain = [], []
    end = time.perf_counter() + budget_s
    i = 0
    while len(t_traced) < MIN_REPS or time.perf_counter() < end:
        r = requests[i % len(requests)]
        driver = FTGemm(FTGemmConfig(trace=True))
        t0 = time.perf_counter()
        result = driver.gemm(r.a, r.b)
        t_traced.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        untraced.gemm(r.a, r.b)
        t_plain.append(time.perf_counter() - t0)
        audit.check("traced call", r, result.c)
        totals = phase_totals(result.trace.events)
        leaf = sum(totals[cat] for cat in PHASE_CATS)
        if leaf > totals["total"] * (1 + 1e-9) + 1e-9:
            audit.problems.append(
                f"traced call {i}: phase sum {leaf * 1e3:.3f} ms exceeds "
                f"root span {totals['total'] * 1e3:.3f} ms")
        for cat, values in phases.items():
            values.append(totals[cat])
        i += 1
    mean_ms = {cat: statistics.fmean(v) * 1e3 for cat, v in phases.items()}
    return {
        "phase.pack_ms": mean_ms["pack"],
        "phase.compute_ms": mean_ms["compute"],
        "phase.checksum_ms": mean_ms["checksum"],
        "phase.verify_ms": mean_ms["verify"],
        "phase.recover_ms": mean_ms["recover"],
        "phase.other_ms": mean_ms["other"],
        "phase.total_ms": mean_ms["total"],
        "obs.trace_overhead_pct":
            (pct(t_traced, 50) / pct(t_plain, 50) - 1.0) * 100.0,
    }, result.trace.events


def kernel_calls(requests, budget_s: float,
                 audit: Audit) -> dict[str, float]:
    """p50 us of ``get_kernel(name).run(request)`` per non-GEMM kernel
    present in ``requests`` (clean runs; each request's answer is
    audited once more after timing)."""
    out = {}
    names = sorted({r.kernel for r in requests} - {"gemm"})
    for name in names:
        kernel = get_kernel(name)
        mine = [r for r in requests if r.kernel == name]
        times = sample([lambda r=r: kernel.run(r) for r in mine],
                       budget_s / max(1, len(names)))
        out[name] = pct(times, 50) * 1e6
        for r in mine:
            audit.check(f"{name} call", r, kernel.run(r).c)
    return out


def faulted_calls(requests, errors: int, seed: int, budget_s: float,
                  audit: Audit) -> float:
    """p50 ms of protected GEMMs each carrying a seeded ``errors``-error
    plan (injection forces the per-tile schedule); every answer is
    audited."""
    driver = FTGemm()
    blocking = driver.ft_config.blocking
    times = []
    end = time.perf_counter() + budget_s
    i = 0
    while len(times) < MIN_REPS or time.perf_counter() < end:
        r = requests[i % len(requests)]
        plan = plan_for_gemm(r.m, r.n, r.k, blocking, errors, seed=seed + i)
        t0 = time.perf_counter()
        result = driver.gemm(r.a, r.b, injector=FaultInjector(plan))
        times.append(time.perf_counter() - t0)
        audit.check("faulted call", r, result.c)
        i += 1
    return pct(times, 50) * 1e3
