"""Cross-request packed-panel + checksum cache for hot B operands.

The serving tier's "model weights" pattern — millions of activations
against one resident weight matrix — repeats the same ``pack B → B̃``
pass (and its fused checksum encoding) for every request. This module
caches that work across requests:

- :func:`encode_b` packs an entire B operand into the driver's per-(p, j)
  block grid **once**, together with every B-only quantity the fused ABFT
  path derives from it: the column-checksum partials ``B^c = B_blk·e``,
  their envelopes ``|B_blk|·e``, the weighted partials ``B_blk·w``, and
  the ``|B̃|`` projection the roundoff envelope needs. The A-dependent
  ledger updates (``C^r += A^r·B_blk`` and its envelope) cannot be
  cached — the driver recomputes them per call from the resident panels.
- :class:`PanelCache` keys entries on **buffer identity plus a cheap
  content fingerprint**, evicts LRU against a byte budget (the same
  currency as the :class:`~repro.gemm.workspace.Workspace` arena), and
  supports explicit invalidation when a caller mutates a cached B.

Trust model (distrust-the-cache): a resident panel lives outside any
single protected call, so it is **re-verified against its stored
checksums on every reuse** before a driver consumes it. Verification is
two exact reductions per K-block — one over the consolidated
``[B̃; |B̃|]`` buffer (the buffers the macro kernel and the fused envelope
actually read), one over the consolidated checksum-partial rows — so a
fault that corrupts a resident panel or its envelope is caught at
admission instead of poisoning every later request. The stored partial
vectors themselves are additionally covered downstream: a corrupted
``B^c`` shifts the predicted column checksum and trips the ordinary ABFT
verification, which recomputes from the *source* operand. Corruption
below the exact-sum detection floor (sub-ulp perturbations) is bounded by
the same roundoff envelope that bounds it on the uncached path.

Memory layout: per K-block ``p`` one contiguous ``(2·plen, W)`` ``stack``
buffer holds ``B̃``'s flat column projection on top of ``|B̃|``; the
per-(p, j) :class:`~repro.gemm.packing.PackedPanels` are zero-copy strided
views into it (:func:`~repro.gemm.packing.panels_from_cols`), so a cache
hit feeds both macro-kernel modes without materialising anything.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.gemm.packing import PackedPanels, panels_from_cols
from repro.obs.metrics import NULL_METRICS
from repro.util.errors import ConfigError, ShapeError

DOUBLE = 8

#: sample grid edge for the content fingerprint: corners plus a strided
#: interior, at most FP_SAMPLE x FP_SAMPLE elements per lookup
FP_SAMPLE = 8


def fingerprint_of(b: np.ndarray) -> tuple:
    """Cheap content fingerprint: shape plus a CRC over a deterministic
    sample grid (corners + strided interior, ≤ 64 elements).

    O(1) in the operand size, so it can run on every lookup; it catches
    in-place mutation probabilistically — a mutation that dodges the
    sample grid needs :meth:`PanelCache.invalidate` (the authoritative
    path) or is caught by the downstream ABFT verification.
    """
    m, n = b.shape
    ri = np.linspace(0, m - 1, num=min(m, FP_SAMPLE)).astype(np.intp)
    ci = np.linspace(0, n - 1, num=min(n, FP_SAMPLE)).astype(np.intp)
    sample = np.ascontiguousarray(b[np.ix_(ri, ci)])
    return (m, n, zlib.crc32(sample.tobytes()))


@dataclass(eq=False)
class EncodedBBlock:
    """One (p, j) block of a cached B: the packed panels plus every
    B-only fused-encode product the driver would otherwise recompute."""

    #: zero-copy strided view into the owning :class:`_PanelSet` stack
    packed: PackedPanels
    #: ``|B̃|`` columns of this block, ``(plen, width)`` view
    abs_cols: np.ndarray
    #: ``B^c`` partial ``B_blk·e`` (computed as the fused path does)
    bc: np.ndarray
    #: envelope partial ``|B_blk|·e``
    abs_bc: np.ndarray
    #: weighted partial ``B_blk·w`` with the block's global column weights
    bc_w: np.ndarray
    #: logical (unpadded) column extent
    jlen: int


@dataclass(eq=False)
class _PanelSet:
    """Consolidated per-K-block storage: one ``[B̃; |B̃|]`` stack, one
    checksum-partial matrix, and their stored verification sums."""

    #: ``(2*plen, W)``: rows ``[:plen]`` are B̃'s column projection,
    #: rows ``[plen:]`` are ``|B̃|``
    stack: np.ndarray
    #: ``(3*n_jblocks, plen)``: rows ``[3j, 3j+1, 3j+2]`` are the j-th
    #: block's ``bc`` / ``abs_bc`` / ``bc_w`` partials
    aux: np.ndarray
    #: stored admission checksums (exact sums at encode time)
    ver_stack: np.ndarray
    ver_aux: np.ndarray
    blocks: list[EncodedBBlock] = field(default_factory=list)

    def verify(self) -> bool:
        """Exact re-reduction of every cached byte vs the stored sums."""
        return np.array_equal(
            self.stack.sum(axis=0), self.ver_stack
        ) and np.array_equal(self.aux.sum(axis=1), self.ver_aux)

    @property
    def nbytes(self) -> int:
        return (
            self.stack.nbytes
            + self.aux.nbytes
            + self.ver_stack.nbytes
            + self.ver_aux.nbytes
        )


@dataclass(eq=False)
class PackedB:
    """A whole B operand, packed and checksum-encoded for one blocking
    geometry. Built by :func:`encode_b`; consumed by the drivers via
    ``gemm(..., packed_b=...)``."""

    #: the source operand — held so ``id(source)`` stays valid for the
    #: cache key lifetime and re-encoding after invalidation reads the
    #: authoritative values
    source: np.ndarray
    fingerprint: tuple
    k: int
    n: int
    kc: int
    nc: int
    nr: int
    psets: list[_PanelSet] = field(default_factory=list)

    def block(self, p_idx: int, j_idx: int) -> EncodedBBlock:
        return self.psets[p_idx].blocks[j_idx]

    def matches(self, config: BlockingConfig, k: int, n: int) -> bool:
        """Whether this encoding serves a call of geometry (k, n) under
        ``config`` (only the B-side parameters matter)."""
        return (self.k, self.n, self.kc, self.nc, self.nr) == (
            k,
            n,
            config.kc,
            config.nc,
            config.nr,
        )

    def verify(self) -> bool:
        return all(pset.verify() for pset in self.psets)

    @property
    def nbytes(self) -> int:
        return sum(pset.nbytes for pset in self.psets)

    @staticmethod
    def estimate_nbytes(k: int, n: int, config: BlockingConfig) -> int:
        """Exact byte cost of ``encode_b(b, config)`` for a (k, n) B,
        computable without building anything (the oversize pre-check)."""
        total = 0
        jblocks = list(iter_blocks(n, config.nc))
        width = sum(
            config.micro_panels_n(jlen) * config.nr for _, jlen in jblocks
        )
        n_j = len(jblocks)
        for _, plen in iter_blocks(k, config.kc):
            total += 2 * plen * width * DOUBLE  # stack
            total += 3 * n_j * plen * DOUBLE  # aux
            total += (width + 3 * n_j) * DOUBLE  # stored sums
        return total


def encode_b(b: np.ndarray, config: BlockingConfig) -> PackedB:
    """Pack and checksum-encode an entire B under ``config``'s geometry.

    This is the cold-miss path: it performs the per-(p, j) work of the
    fused pack-B pass (pack + the ``B^c`` / envelope / weighted partials
    of :func:`repro.core.fused.b_partials`, the function that pass uses)
    but into cache-owned consolidated buffers, once, instead of into the
    per-call workspace arena on every request. The weighted partials are
    always encoded so one entry serves both checksum schemes.
    """
    # imported here: repro.core depends on this package at import time
    from repro.core.fused import b_partials

    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ShapeError(f"B must be 2-D, got shape {b.shape}")
    k, n = b.shape
    fp = fingerprint_of(b)
    entry = PackedB(
        source=b,
        fingerprint=fp,
        k=k,
        n=n,
        kc=config.kc,
        nc=config.nc,
        nr=config.nr,
    )
    jblocks = list(iter_blocks(n, config.nc))
    widths = [config.micro_panels_n(jlen) * config.nr for _, jlen in jblocks]
    total_w = sum(widths)
    # global column weights of the weighted scheme: w_n = 1..n
    w_n = np.arange(1.0, n + 1.0)
    for p0, plen in iter_blocks(k, config.kc):
        stack = np.zeros((2 * plen, total_w), dtype=np.float64)
        cols = stack[:plen]
        abs_cols = stack[plen:]
        aux = np.zeros((3 * len(jblocks), plen), dtype=np.float64)
        pset = _PanelSet(
            stack=stack,
            aux=aux,
            ver_stack=np.empty(0),
            ver_aux=np.empty(0),
        )
        woff = 0
        for j_idx, (j0, jlen) in enumerate(jblocks):
            width = widths[j_idx]
            b_blk = b[p0 : p0 + plen, j0 : j0 + jlen]
            # the cols projection of pack_b is [B_blk | 0-padding]
            cols[:, woff : woff + jlen] = b_blk
            np.abs(
                cols[:, woff : woff + width],
                out=abs_cols[:, woff : woff + width],
            )
            aux[3 * j_idx : 3 * j_idx + 3] = b_partials(
                b_blk, np.abs(b_blk), w_n[j0 : j0 + jlen]
            )
            packed = panels_from_cols(
                cols[:, woff : woff + width], config.nr, jlen
            )
            pset.blocks.append(
                EncodedBBlock(
                    packed=packed,
                    abs_cols=abs_cols[:, woff : woff + width],
                    bc=aux[3 * j_idx],
                    abs_bc=aux[3 * j_idx + 1],
                    bc_w=aux[3 * j_idx + 2],
                    jlen=jlen,
                )
            )
            woff += width
        # stored admission checksums: the exact reductions verify() redoes
        pset.ver_stack = stack.sum(axis=0)
        pset.ver_aux = aux.sum(axis=1)
        entry.psets.append(pset)
    return entry


class PanelCache:
    """Content-keyed LRU cache of :class:`PackedB` entries.

    Keying: ``(id(b), kc, nc, nr)`` — the entry pins its source array so
    the id cannot be recycled while the entry lives; a lookup additionally
    requires source **identity** and a matching content fingerprint, so an
    in-place mutation of a cached B invalidates its entry on the next
    lookup (and :meth:`invalidate` does so eagerly).

    Budget: entries are charged their consolidated buffer bytes against
    ``budget_bytes`` (the same currency as the Workspace arena); inserting
    past the budget evicts LRU entries until the total fits again. An
    entry that alone exceeds the budget is never built (counted
    ``oversize``; the caller packs per-request as before).

    Thread safety: one lock guards the map and the counters; the encode
    (miss) and re-verify (hit) passes run outside it — entries are
    immutable after construction, and an acquired entry stays valid even
    if concurrently evicted (the caller holds the reference).
    """

    def __init__(
        self,
        budget_bytes: int,
        *,
        metrics=NULL_METRICS,
        tracer=None,
    ) -> None:
        if budget_bytes < 1:
            raise ConfigError(
                f"budget_bytes must be >= 1, got {budget_bytes}"
            )
        self.budget_bytes = int(budget_bytes)
        self.metrics = metrics
        self.tracer = tracer
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PackedB] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._reverify_failures = 0
        self._oversize = 0
        #: sliding window of lookup outcomes for the degraded-mode signal
        self._recent: deque[bool] = deque(maxlen=64)
        #: tid lane per consulting thread: spans from one thread are
        #: sequential, so giving each thread its own lane keeps the
        #: structural trace contract (spans on a lane nest or stay
        #: disjoint) under concurrent workers
        self._lanes: dict[int, int] = {}

    # -------------------------------------------------------------- lookups
    def acquire(self, b: np.ndarray, config: BlockingConfig) -> PackedB | None:
        """Return a verified :class:`PackedB` for ``b`` under ``config``,
        building (and caching) it on a miss. Returns None only when the
        entry would not fit the budget at all — the caller then runs the
        ordinary per-call packing path."""
        key = (id(b), config.kc, config.nc, config.nr)
        fp = fingerprint_of(b)
        entry = self._lookup(key, b, fp)
        if entry is not None:
            if self._reverify(entry):
                return entry
            # resident corruption: drop the entry and rebuild from source
            self._discard(key, entry, counter="_reverify_failures",
                          metric="panel_cache.reverify_failed")
        estimate = PackedB.estimate_nbytes(b.shape[0], b.shape[1], config)
        if estimate > self.budget_bytes:
            with self._lock:
                self._oversize += 1
            self.metrics.inc("panel_cache.oversize")
            return None
        tr = self.tracer
        if tr is not None:
            with tr.span(
                "panel_cache.pack",
                cat="panel_cache",
                tid=self._lane(),
                args={"k": b.shape[0], "n": b.shape[1], "bytes": estimate},
            ):
                built = encode_b(b, config)
        else:
            built = encode_b(b, config)
        return self._insert(key, built)

    def _lane(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            lane = self._lanes.get(ident)
            if lane is None:
                lane = 3000 + len(self._lanes)
                self._lanes[ident] = lane
            return lane

    def peek(self, b: np.ndarray, config: BlockingConfig) -> PackedB | None:
        """The resident entry for ``b`` (no LRU move, no stats); tests and
        introspection only."""
        key = (id(b), config.kc, config.nc, config.nr)
        with self._lock:
            entry = self._entries.get(key)
            return entry if entry is not None and entry.source is b else None

    def touch(self, b_id: int) -> bool:
        """Refresh the LRU recency of every entry for operand id ``b_id``
        (the scheduler's admission-time consult: a batch forming around a
        hot B keeps its panels resident). Returns True when any entry is
        resident."""
        found = False
        with self._lock:
            for key in [k for k in self._entries if k[0] == b_id]:
                self._entries.move_to_end(key)
                found = True
        if found:
            self.metrics.inc("panel_cache.sched_hot")
        return found

    def invalidate(self, b: np.ndarray) -> int:
        """Explicitly drop every entry for ``b`` (any geometry) — the
        authoritative path when a caller mutates a cached operand in
        place. Returns the number of entries dropped."""
        dropped = 0
        with self._lock:
            for key in [
                k
                for k, e in self._entries.items()
                if k[0] == id(b) and e.source is b
            ]:
                entry = self._entries.pop(key)
                self._bytes -= entry.nbytes
                self._invalidations += 1
                dropped += 1
            if dropped:
                self._update_gauges()
        if dropped:
            self.metrics.inc("panel_cache.invalidations", dropped)
        return dropped

    # ------------------------------------------------------------ internals
    def _lookup(self, key: tuple, b: np.ndarray, fp: tuple) -> PackedB | None:
        with self._lock:
            entry = self._entries.get(key)
            stale = entry is not None and (
                entry.source is not b or entry.fingerprint != fp
            )
            if stale:
                # the operand was mutated in place (or the id was
                # recycled): the entry no longer describes these values
                self._entries.pop(key)
                self._bytes -= entry.nbytes
                self._invalidations += 1
                self._update_gauges()
                entry = None
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._recent.append(True)
            else:
                self._misses += 1
                self._recent.append(False)
        if entry is not None:
            self.metrics.inc("panel_cache.hits")
        else:
            self.metrics.inc("panel_cache.misses")
            if stale:
                self.metrics.inc("panel_cache.invalidations")
        return entry

    def _reverify(self, entry: PackedB) -> bool:
        tr = self.tracer
        if tr is not None:
            lane = self._lane()
            with tr.span(
                "panel_cache.reverify",
                cat="panel_cache",
                tid=lane,
                args={"k": entry.k, "n": entry.n},
            ):
                ok = entry.verify()
            if not ok:
                tr.event(
                    "panel_cache.corrupt",
                    cat="panel_cache",
                    tid=lane,
                    args={"k": entry.k, "n": entry.n},
                )
        else:
            ok = entry.verify()
        return ok

    def _discard(self, key: tuple, entry: PackedB, *, counter: str,
                 metric: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
            if self._entries.get(key) is entry:
                self._entries.pop(key)
                self._bytes -= entry.nbytes
                self._update_gauges()
        self.metrics.inc(metric)

    def _insert(self, key: tuple, built: PackedB) -> PackedB:
        tr = self.tracer
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.source is built.source:
                # a concurrent miss built the same entry first: keep it
                return existing
            if existing is not None:
                self._bytes -= existing.nbytes
                self._entries.pop(key)
            self._entries[key] = built
            self._bytes += built.nbytes
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                self._evictions += 1
                evicted += 1
            self._update_gauges()
        if evicted:
            self.metrics.inc("panel_cache.evictions", evicted)
            if tr is not None:
                tr.event(
                    "panel_cache.evict",
                    cat="panel_cache",
                    tid=self._lane(),
                    args={"evicted": evicted},
                )
        return built

    def _update_gauges(self) -> None:
        self.metrics.set_gauge("panel_cache.bytes", float(self._bytes))
        self.metrics.set_gauge(
            "panel_cache.entries", float(len(self._entries))
        )

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def recent_hit_ratio(self) -> float:
        """Hit ratio over the last ≤ 64 lookups (0.0 when none yet) — the
        degraded-mode signal: a hot cache makes batches cheaper, so the
        service can tolerate a deeper backlog before shedding quality."""
        with self._lock:
            if not self._recent:
                return 0.0
            return sum(self._recent) / len(self._recent)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "reverify_failed": self._reverify_failures,
                "oversize": self._oversize,
            }
