"""Seeded request traffic and the open-loop generator.

Everything a run feeds the program is built here from the run's seed and
handed over as finished operands: the shared-operand pools, each phase's
arrival offsets and its requests. The same seed therefore gives the same
bytes (``digest`` proves it), and no generation work lands inside a
timed window.

The generator (:func:`drive`) is open loop on absolute due times: request
``i`` is due at ``t0 + offset[i]`` whatever happened to request ``i-1``.
Latency is timed from the due time, so a stall in the service or in the
generator itself shows up in every request queued behind it, and the
generator's own lateness (submit time minus due time) is reported next to
it instead of silently lowering the offered rate.
"""

from __future__ import annotations

import copy
import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import get_kernel
from repro.serve import ShapeSpec
from repro.serve.request import (
    FftRequest,
    GemmRequest,
    GemvRequest,
    TrsmRequest,
)

#: popularity skew of the shared-operand pool: rank r drawn with
#: probability proportional to 1 / r**ZIPF_S
ZIPF_S = 1.2

#: tolerance of the oracle audit, relative to the answer's largest entry
AUDIT_RTOL = 1e-8


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _trsm_factor(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Diagonally dominant lower-triangular factor (well conditioned)."""
    return np.tril(rng.standard_normal((dim, dim))) + dim * np.eye(dim)


@dataclass
class Mix:
    """A shape mix plus its shared-operand pools.

    Shareable classes (every class that is not ``private_b`` and not an
    FFT) get ``pool`` operands each, drawn Zipf-skewed per request; the
    operands are the same objects across phases, so the service's
    coalescing and caches see real reuse.
    """

    shapes: tuple[ShapeSpec, ...]
    pool: int
    seed: int
    pools: dict[int, list[np.ndarray]] = field(init=False)

    def __post_init__(self) -> None:
        rng = _rng(self.seed, 0)
        self.pools = {}
        for i, spec in enumerate(self.shapes):
            if spec.private_b or spec.kernel == "fft":
                continue
            self.pools[i] = [self._shared(rng, spec) for _ in range(self.pool)]
        weights = np.array([s.weight for s in self.shapes], dtype=float)
        self.weights = weights / weights.sum()
        ranks = np.arange(1.0, self.pool + 1.0)
        zipf = ranks ** -ZIPF_S
        self.zipf = zipf / zipf.sum()

    @staticmethod
    def _shared(rng, spec: ShapeSpec) -> np.ndarray:
        if spec.kernel == "gemm":
            return rng.standard_normal((spec.k, spec.n))
        if spec.kernel == "gemv":
            return rng.standard_normal((spec.m, spec.k))
        return _trsm_factor(rng, spec.k)

    def request(self, rng: np.random.Generator, i: int):
        """One request of class ``i`` (fresh per-request operands, pooled
        shared operand)."""
        spec = self.shapes[i]
        shared = None
        if i in self.pools:
            shared = self.pools[i][int(rng.choice(self.pool, p=self.zipf))]
        if spec.kernel == "gemm":
            a = rng.standard_normal((spec.m, spec.k))
            b = shared if shared is not None else rng.standard_normal(
                (spec.k, spec.n))
            return GemmRequest(a, b)
        if spec.kernel == "gemv":
            x = rng.standard_normal(spec.k)
            mat = shared if shared is not None else rng.standard_normal(
                (spec.m, spec.k))
            return GemvRequest(mat, x)
        if spec.kernel == "trsm":
            rhs = rng.standard_normal((spec.k, spec.n))
            factor = shared if shared is not None else _trsm_factor(
                rng, spec.k)
            return TrsmRequest(factor, rhs)
        if spec.kernel == "fft":
            return FftRequest(rng.standard_normal(spec.n))
        raise ValueError(f"unknown kernel {spec.kernel!r}")

    def labelled(self, tag: int, count: int) -> list[tuple[int, object]]:
        """``count`` (class index, request) pairs in a seeded order whose
        class counts match the mix weights exactly (largest remainder),
        so two seeds differ in order and operands, not in composition."""
        rng = _rng(self.seed, tag)
        exact = self.weights * count
        counts = np.floor(exact).astype(int)
        for i in np.argsort(counts - exact)[: count - int(counts.sum())]:
            counts[i] += 1
        classes = rng.permutation(np.repeat(np.arange(len(self.shapes)),
                                            counts))
        return [(int(i), self.request(rng, int(i))) for i in classes]

    def requests(self, tag: int, count: int) -> list:
        return [r for _, r in self.labelled(tag, count)]

    def warmup(self) -> list:
        """One request per (class, shared operand): every shape class and
        every pooled operand is seen once before the timed window."""
        rng = _rng(self.seed, 1)
        out = []
        for i, spec in enumerate(self.shapes):
            for j in range(len(self.pools.get(i, [None]))):
                req = self.request(rng, i)
                if i in self.pools:
                    # pin the pooled operand so each one is warmed
                    shared = self.pools[i][j]
                    if spec.kernel == "gemm":
                        req = GemmRequest(req.a, shared)
                    elif spec.kernel == "gemv":
                        req = GemvRequest(shared, req.x)
                    else:
                        req = TrsmRequest(shared, req.b)
                out.append(req)
        return out

    def is_shared(self, request) -> bool:
        operand = request.shared_operand
        return operand is not None and any(
            operand is s for pool in self.pools.values() for s in pool
        )


@dataclass
class Phase:
    """One fixed-rate step: arrival offsets plus their requests."""

    name: str
    seconds: float
    offsets: np.ndarray
    requests: list


def phase(mix: Mix, name: str, tag: int, rate: float, seconds: float, *,
          distinct: int | None = None) -> Phase:
    """Evenly spaced arrivals at ``rate`` for ``seconds``; the requests
    are seeded by ``tag``. Even spacing keeps the step's tail a property
    of the service rather than of one draw of arrival bursts. With
    ``distinct``, only that many requests get operands of their own and
    the rest are copies of them in turn: an overload step offers far more
    requests than the program answers, and operands for all would cost
    hundreds of megabytes."""
    count = max(1, int(rate * seconds))
    fresh = mix.requests(tag, min(count, distinct or count))
    requests = fresh + [copy.copy(fresh[i % len(fresh)])
                        for i in range(count - len(fresh))]
    for i, request in enumerate(requests):
        request.request_id = f"{name}-{i:06d}"
    return Phase(name, seconds, np.arange(count) / rate, requests)


def digest(*phases: Phase, mix: Mix | None = None) -> str:
    """sha256 over schedules and operand bytes (determinism check)."""
    h = hashlib.sha256()
    if mix is not None:
        for i in sorted(mix.pools):
            for arr in mix.pools[i]:
                h.update(arr.tobytes())
    for ph in phases:
        h.update(ph.name.encode())
        h.update(np.asarray(ph.offsets, dtype=np.float64).tobytes())
        for req in ph.requests:
            h.update(req.kernel.encode())
            for name in ("a", "b", "x"):
                arr = getattr(req, name, None)
                if isinstance(arr, np.ndarray):
                    h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Sent:
    """One submitted request. ``done`` is stamped on the benchmark's own
    clock when the answer arrives, then ``finished`` is set."""

    request: object
    due: float
    submitted: float
    returned: float = 0.0
    response: object = None
    done: float = 0.0
    finished: threading.Event = field(default_factory=threading.Event)

    def _answered(self, response) -> None:
        self.done = time.perf_counter()
        self.response = response
        self.finished.set()


def send(service, request, due: float, tracer=None) -> Sent:
    """Submit one request due at ``due``. With a ``tracer`` the submit
    is recorded as a ``bench.submit`` span."""
    s = Sent(request, due, time.perf_counter())
    span_t0 = tracer.now_us() if tracer is not None else 0.0
    ticket = service.submit(request)
    s.returned = time.perf_counter()
    if tracer is not None:
        tracer.complete("bench.submit", cat="bench", tid=9000, t0_us=span_t0)
    # runs at once when the answer is already there
    ticket.future.add_done_callback(s._answered)
    return s


@dataclass
class Outcome:
    """A driven phase after every answer arrived (or timed out)."""

    name: str
    sent: list[Sent]
    #: per-request latency from the due time (ms), ok answers only
    latency_ms: list[float] = field(default_factory=list)
    #: submit minus due (ms), every request
    late_ms: list[float] = field(default_factory=list)
    #: time spent inside GemmService.submit (us), every request
    submit_us: list[float] = field(default_factory=list)
    #: the sends answered ok (and right)
    ok: list[Sent] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)
    lost: int = 0
    wrong: int = 0

    @property
    def attempted(self) -> int:
        return len(self.sent)

    @property
    def failed(self) -> int:
        ok = self.statuses.get("ok", 0)
        return self.attempted - ok + self.wrong


def drive(service, ph: Phase, *, stop_at_window: bool = False,
          tracer=None) -> tuple[float, list[Sent]]:
    """Submit ``ph`` open loop; returns (window start, sends). With
    ``stop_at_window`` the generator stops once the window has passed (an
    overload step whose submits block). With a ``tracer`` each submit is
    recorded as a ``bench.submit`` span."""
    sent = []
    t0 = time.perf_counter() + 0.005
    end = t0 + ph.seconds
    for offset, request in zip(ph.offsets, ph.requests):
        due = t0 + float(offset)
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        elif stop_at_window and now >= end:
            break
        sent.append(send(service, request, due, tracer))
    return t0, sent


def collect(name: str, sent: list[Sent], *, timeout_s: float = 60.0,
            keep_answers: bool = False) -> Outcome:
    """Wait for every answer, audit ``ok`` ones against the kernel oracle
    and compute the per-request timings. Latency runs from the due time
    to the moment the answer reached the benchmark, both on its own
    clock, so every wait inside ``submit`` counts too. Audited answers
    are dropped unless ``keep_answers``, so a long run's peak RSS is the
    program's rather than the benchmark's."""
    out = Outcome(name, sent)
    deadline = time.perf_counter() + timeout_s
    for s in sent:
        out.late_ms.append((s.submitted - s.due) * 1e3)
        out.submit_us.append((s.returned - s.submitted) * 1e6)
        if not s.finished.wait(max(0.0, deadline - time.perf_counter())):
            out.lost += 1
            continue
        response = s.response
        if not keep_answers:
            s.response = None
        status = response.status
        out.statuses[status] = out.statuses.get(status, 0) + 1
        if not response.ok:
            continue
        if not answer_ok(s.request, response.result.c):
            out.wrong += 1
            continue
        out.ok.append(s)
        out.latency_ms.append((s.done - s.due) * 1e3)
    return out


def answer_ok(request, c) -> bool:
    """``c`` matches the request's kernel oracle within AUDIT_RTOL."""
    expected = get_kernel(request.kernel).oracle(request)
    c = np.asarray(c)
    if c.shape != expected.shape:
        return False
    scale = float(np.max(np.abs(expected))) + 1.0
    return float(np.max(np.abs(c - expected))) <= AUDIT_RTOL * scale

