"""The paper's fused ABFT passes, each written once (Sections 2.2–2.3).

Every checksum update rides on a pass that already touches the data:

====================  ====================================================
pass                  fused ABFT work (:class:`FusedPasses` method)
====================  ====================================================
prologue              ``A^r = eᵀ(αA)``, the envelope ``eᵀ|αA|`` and, for
                      the weighted scheme, ``w_mᵀ(αA)`` (``encode_a``)
``C = βC``            DMR-protected scaling; ``|C₀|`` sums and the initial
                      predicted checksums of ``βC`` (``encode_c``)
pack ``B → B̃``       ``B^c = B_blk·e``, ``|B_blk|·e``, ``B_blk·w`` and
                      ``C^r += A^r·B_blk`` with its envelope (``update_b``;
                      ``update_b_cached`` replays it from a resident panel)
pack ``A → Ã``        ``C^c += αA_blk·B^c`` with its envelope
                      (``update_a``; ``update_a_reused`` reads a resident
                      Ã instead of a fresh A block)
last macro kernel     reference sums ``eᵀC_blk`` / ``C_blk·e`` collected
                      by the kernel from the arguments of ``refs`` (the
                      batched schedule, with no kernel sweep, reduces the
                      finished C instead: ``collect_refs``)
epilogue              :func:`verify`: verify, locate, correct, escalate
====================  ====================================================

The serial :class:`~repro.core.ftgemm.FTGemm` runs one instance over the
whole call; the Figure-1 :class:`~repro.core.parallel.ParallelFTGemm` runs
one per team thread, each over that thread's row slice of A and C and its
column chunk of B. The two schemes differ only in which thread runs a
pass over which slice — the drivers own the loop nests, the partial
reductions and any byte booking that is theirs alone. The panel cache
derives its B-side partials through :func:`b_partials`, the function the
fused pack-B pass uses, so a cached encoding equals the fused one by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.dmr import dmr_scale
from repro.core.supervisor import EscalationSupervisor
from repro.core.verification import ChecksumLedger, Verifier
from repro.faults.sites import KERNEL_SITES
from repro.obs.tracer import NULL_SPAN
from repro.simcpu.counters import Counters


def no_visit(site: str, array: np.ndarray, tid: int | None = None) -> bool:
    """The injector hook of a fault-free run."""
    return False


def injection_allows_batched(injector) -> bool:
    """Whether batched dispatch is legal under ``injector``.

    Always without one. With one, only when its plan strikes no
    kernel-layer site (micro-kernel tiles, packed buffers): checksum and
    scale injection touch driver-level state only. Injectors without a
    queryable plan conservatively force the per-tile schedule.
    """
    if injector is None:
        return True
    targets = getattr(injector, "targets_site", None)
    if targets is None:
        return False
    return not any(targets(site) for site in KERNEL_SITES)


def b_partials(b_blk: np.ndarray, abs_b_blk: np.ndarray, w_blk):
    """The B-only products of one (p, j) block: ``B^c = B_blk·e``, its
    envelope ``|B_blk|·e`` and, given the block's global column weights
    ``w_blk``, the weighted partial ``B_blk·w`` (else None)."""
    bc_w = None if w_blk is None else b_blk @ w_blk
    return b_blk.sum(axis=1), abs_b_blk.sum(axis=1), bc_w


class FusedPasses:
    """The fused checksum updates feeding one :class:`ChecksumLedger`.

    ``visit`` is the injector hook ``visit(site, array)``, already bound
    to the calling thread. Each pass books the checksum flops the
    performance model counts for it into ``counters``.
    """

    def __init__(
        self,
        config: FTGemmConfig,
        m: int,
        n: int,
        *,
        alpha: float,
        counters: Counters,
        visit=no_visit,
        tracer=None,
        tid: int = 0,
    ):
        self.config = config
        self.alpha = alpha
        self.counters = counters
        self.visit = visit
        self.tracer = tracer
        self.tid = tid
        self.ledger = ChecksumLedger.zeros(m, n, weighted=config.weighted)
        self.w_m = self.w_n = None
        if config.weighted:
            self.w_m = np.arange(1.0, m + 1.0)
            self.w_n = np.arange(1.0, n + 1.0)
        # A-side sums over the whole K range (the parallel driver replaces
        # them by the reduction of every thread's partials)
        self.a_row = self.abs_a_row = self.a_row_w = None
        # B-side partials of the current (p, j) block
        self.bc = self.abs_bc = self.bc_w = None

    def span(self, site: str, **args):
        """The trace span of one fused checksum update."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span("checksum_update", cat="checksum",
                                tid=self.tid, args={"site": site, **args})

    # ------------------------------------------------------------- passes
    def encode_a(self, a_rows: np.ndarray, r0: int = 0) -> None:
        """Prologue: the one upfront sweep of A over rows ``[r0, r0+len)``."""
        alpha = self.alpha
        rows, k = a_rows.shape
        self.a_row = alpha * a_rows.sum(axis=0)
        self.abs_a_row = abs(alpha) * np.abs(a_rows).sum(axis=0)
        self.counters.checksum_flops += 2 * rows * k
        if self.ledger.weighted:
            self.a_row_w = alpha * (self.w_m[r0 : r0 + rows] @ a_rows)
            self.counters.checksum_flops += 2 * rows * k
        self.visit("checksum", self.a_row)

    def encode_c(self, c_rows: np.ndarray, r0: int, beta: float, scale) -> None:
        """``C = βC`` over rows ``[r0, r0+len)``, encoding the predicted
        checksums from the scaled values while they are live.

        ``scale(c, beta)`` is the driver's plain scaling pass, run when
        DMR protection is off.
        """
        ledger = self.ledger
        counters = self.counters
        rows = c_rows.shape[0]
        if beta != 0.0:
            abs_c = np.abs(c_rows)
            ledger.c0_abs_row = abs_c.sum(axis=0)
            ledger.c0_abs_col = np.zeros(ledger.col_pred.shape[0])
            ledger.c0_abs_col[r0 : r0 + rows] = abs_c.sum(axis=1)
            counters.checksum_flops += 2 * c_rows.size
        if self.config.dmr_protect_scale:
            dmr_scale(c_rows, beta, counters=counters, visit=self.visit)
        else:
            scale(c_rows, beta)
            self.visit("scale", c_rows)
        if beta != 0.0:
            ledger.row_pred += c_rows.sum(axis=0)
            ledger.col_pred[r0 : r0 + rows] += c_rows.sum(axis=1)
            counters.checksum_flops += 2 * c_rows.size
            if ledger.weighted:
                ledger.row_pred_w += self.w_m[r0 : r0 + rows] @ c_rows
                ledger.col_pred_w[r0 : r0 + rows] += c_rows @ self.w_n
                counters.checksum_flops += 4 * c_rows.size
        self.visit("checksum", ledger.col_pred[r0 : r0 + rows])

    def update_b(self, b_blk: np.ndarray, p0: int, j0: int) -> None:
        """Pack-B pass over B rows ``p0…`` and columns ``j0…``: each loaded
        B element is used three times (pack, ``B^c``, ``C^r``)."""
        plen, jlen = b_blk.shape
        abs_b_blk = np.abs(b_blk)
        w_blk = self.w_n[j0 : j0 + jlen] if self.ledger.weighted else None
        self.bc, self.abs_bc, self.bc_w = b_partials(b_blk, abs_b_blk, w_blk)
        self.counters.checksum_flops += plen * jlen
        if self.ledger.weighted:
            self.counters.checksum_flops += 2 * plen * jlen
        self._update_row_pred(b_blk, abs_b_blk, p0, j0)
        self.visit("checksum", self.ledger.row_pred[j0 : j0 + jlen])

    def update_b_cached(self, blk, p0: int, j0: int) -> None:
        """Pack-B pass served by a panel-cache block: the stored partials
        are adopted and ``C^r`` is updated from the resident columns."""
        self.bc, self.abs_bc, self.bc_w = blk.bc, blk.abs_bc, blk.bc_w
        self._update_row_pred(
            blk.packed.cols()[:, : blk.jlen], blk.abs_cols[:, : blk.jlen],
            p0, j0,
        )

    def _update_row_pred(self, cols, abs_cols, p0: int, j0: int) -> None:
        """``C^r += A^r·B_blk`` and its envelope (the A-dependent half of
        the pack-B pass, which no cache can hold)."""
        plen, jlen = cols.shape
        ledger = self.ledger
        ledger.row_pred[j0 : j0 + jlen] += self.a_row[p0 : p0 + plen] @ cols
        ledger.env_row[j0 : j0 + jlen] += (
            self.abs_a_row[p0 : p0 + plen] @ abs_cols
        )
        self.counters.checksum_flops += 4 * plen * jlen
        if ledger.weighted:
            ledger.row_pred_w[j0 : j0 + jlen] += (
                self.a_row_w[p0 : p0 + plen] @ cols
            )
            self.counters.checksum_flops += 2 * plen * jlen

    def update_a(self, a_blk: np.ndarray, i0: int) -> None:
        """Pack-A pass: the loaded A block predicts ``C^c`` rows ``i0…``."""
        ilen, plen = a_blk.shape
        alpha = self.alpha
        ledger = self.ledger
        ledger.col_pred[i0 : i0 + ilen] += alpha * (a_blk @ self.bc)
        ledger.env_col[i0 : i0 + ilen] += abs(alpha) * (
            np.abs(a_blk) @ self.abs_bc
        )
        self.counters.checksum_flops += 4 * ilen * plen
        if ledger.weighted:
            ledger.col_pred_w[i0 : i0 + ilen] += alpha * (a_blk @ self.bc_w)
            self.counters.checksum_flops += 2 * ilen * plen
        self.visit("checksum", ledger.col_pred[i0 : i0 + ilen])

    def update_a_reused(self, rows: np.ndarray, i0: int) -> None:
        """Pack-A pass when Ã is reused across j-blocks: ``B^c`` differs
        per j, so ``C^c`` still accumulates — from the resident Ã rows
        (alpha already folded in) instead of a fresh sweep of A."""
        ilen, plen = rows.shape
        ledger = self.ledger
        ledger.col_pred[i0 : i0 + ilen] += rows @ self.bc
        ledger.env_col[i0 : i0 + ilen] += np.abs(rows) @ self.abs_bc
        self.counters.checksum_flops += 4 * ilen * plen
        if ledger.weighted:
            ledger.col_pred_w[i0 : i0 + ilen] += rows @ self.bc_w
            self.counters.checksum_flops += 2 * ilen * plen

    def refs(self, i0: int, ilen: int, j0: int, jlen: int) -> dict:
        """Macro-kernel arguments that collect the reference checksums of
        the C block ``[i0…, j0…]`` on the last K-block."""
        ledger = self.ledger
        refs = dict(
            row_ref=ledger.row_ref[j0 : j0 + jlen],
            col_ref=ledger.col_ref[i0 : i0 + ilen],
        )
        if ledger.weighted:
            refs.update(
                row_ref_w=ledger.row_ref_w[j0 : j0 + jlen],
                col_ref_w=ledger.col_ref_w[i0 : i0 + ilen],
                row_weights=self.w_m[i0 : i0 + ilen],
                col_weights=self.w_n[j0 : j0 + jlen],
            )
        return refs

    def collect_refs(self, c: np.ndarray) -> None:
        """The reference sums as whole-C reductions, for the batched
        schedule where one contraction produced C and no kernel sweep
        visits its tiles: ``eᵀC`` / ``C·e`` (and the weighted pair)."""
        ledger = self.ledger
        ledger.row_ref += c.sum(axis=0)
        ledger.col_ref += c.sum(axis=1)
        self.counters.checksum_flops += 2 * c.size
        if ledger.weighted:
            ledger.row_ref_w += self.w_m @ c
            ledger.col_ref_w += c @ self.w_n
            self.counters.checksum_flops += 4 * c.size


def verify(
    c: np.ndarray,
    ledger: ChecksumLedger,
    *,
    a: np.ndarray,
    b: np.ndarray,
    alpha: float,
    beta: float,
    c0: np.ndarray | None,
    config: FTGemmConfig,
    counters: Counters,
    injector=None,
    tracer=None,
    recovery=None,
):
    """The verify epilogue: returns ``(reports, verified, recovery)``.

    Runs the :class:`EscalationSupervisor` (or the plain :class:`Verifier`
    when the config disables it) and reports the detected/corrected
    totals to ``injector``. ``recovery`` is an earlier recovery report of
    this call (the parallel fail-stop epoch) to extend; the result is
    None when nothing beyond a clean verification happened.
    """
    checker = (EscalationSupervisor if config.enable_supervisor else Verifier)(
        a, b, alpha=alpha, beta=beta, c0=c0, config=config,
        counters=counters, injector=injector, tracer=tracer,
    )
    try:
        if config.enable_supervisor:
            reports, verified, recovery = checker.finalize(
                c, ledger, report=recovery
            )
        else:
            reports, verified = checker.finalize(c, ledger)
    finally:
        if injector is not None:
            injector.mark_detected(counters.errors_detected)
            mark_corrected = getattr(injector, "mark_corrected", None)
            if mark_corrected is not None:
                mark_corrected(counters.errors_corrected)
    if config.enable_supervisor:
        if not (recovery.rounds or recovery.quarantined):
            recovery = None
    elif recovery is not None and recovery.rounds and verified:
        recovery.rounds[-1].succeeded = True
    return reports, verified, recovery
