"""FT-GEMM: the fused fault-tolerant GEMM (paper Section 2.2).

:class:`FTGemm` extends the blocked driver with the paper's fused ABFT
operations, each attached to the pass that already touches the data —
the A prologue sweep, the ``C = βC`` scaling, pack B, pack A and the last
K-block's macro kernels — and verifies once after the loops. The passes
themselves live in :mod:`repro.core.fused` (shared with the parallel
scheme); this driver hooks them into the Figure-1 loop nest and keeps
what is serial-only: Ã reuse across j-blocks, panel-cache admission, the
memory-sink address stream and the eager debug probes.

On the batched schedule the pack-B and pack-A passes run over unpacked
block views of B and A (nothing is packed), C comes from one numpy
contraction, and the last-K-block reference sums become whole-C
reductions (:meth:`FusedPasses.collect_refs`).

The driver therefore makes **no separate pass** over A, B, or C for fault
tolerance — the property the paper's overhead numbers hinge on. Counters
record the fused checksum flops (``checksum_flops``) and keep
``ft_extra_bytes`` at zero on the clean path, which the performance model
converts into the ~3 % (vs classic ~15 %) overhead curves.
"""

from __future__ import annotations

import numpy as np

from repro.abft.locate import locate
from repro.core.config import FTGemmConfig
from repro.core.fused import FusedPasses, injection_allows_batched, no_visit, verify
from repro.core.results import FTGemmResult, VerificationReport
from repro.core.verification import envelope_tolerances
from repro.gemm.driver import BlockedGemm, MemorySink
from repro.gemm.macrokernel import TileHook, macro_kernel
from repro.gemm.packing import PackedPanels
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.simcpu.counters import Counters
from repro.util.errors import ConfigError


class FTGemm(BlockedGemm):
    """Serial fused ABFT GEMM.

    Instances are reusable across calls but not reentrant: per-call checksum
    state lives on the instance (mirroring the paper's per-call buffers).
    The parallel scheme is :class:`repro.core.parallel.ParallelFTGemm`.
    """

    def __init__(
        self,
        config: FTGemmConfig | None = None,
        *,
        sink: MemorySink | None = None,
        tracer=None,
    ):
        self.ft_config = (config or FTGemmConfig()).validate()
        if tracer is None and self.ft_config.trace:
            tracer = Tracer()
        super().__init__(self.ft_config.blocking, sink=sink, tracer=tracer)
        self._release_call_state()

    @property
    def ft(self) -> bool:
        return self.ft_config.enable_ft

    # ------------------------------------------------------------ public API
    def gemm(  # type: ignore[override]
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        trans_a: bool = False,
        trans_b: bool = False,
        injector=None,
        on_tile: TileHook | None = None,
        request_id: str | None = None,
        packed_b=None,
    ) -> FTGemmResult:
        """Protected ``C = alpha*op(A)@op(B) + beta*C``; returns
        :class:`FTGemmResult`.

        ``request_id`` is an optional correlation id stamped onto the result
        (and its recovery report) so callers that manage many concurrent
        calls — the serving layer — can join results back to requests.

        ``packed_b`` optionally supplies a pre-packed-and-encoded B (a
        :class:`~repro.gemm.panelcache.PackedB` from the panel cache): the
        whole pack_b+checksum-encode phase is served from the resident
        buffers while the checksum ledger stays exactly consistent (the
        cached partials come from the same function the fused pass uses).
        Injected runs decline it — fault campaigns must keep the exact
        per-pass schedule the planner counted — so a cached B never
        perturbs an injection experiment.

        ``trans_a``/``trans_b`` select ``op(X) = Xᵀ`` (the BLAS interface).
        The transposed operand is materialized contiguously before the
        blocked sweep — a production kernel folds the transpose into the
        packing pass instead; the checksum algebra is identical either way.

        ``injector`` is consulted at every instrumented site (see
        :mod:`repro.faults.sites`); pass ``None`` for a fault-free run.
        ``on_tile`` is an extra observer hook forwarded to the macro kernel
        (after any injection), used by tests.
        """
        if trans_b and packed_b is not None:
            raise ConfigError(
                "packed_b describes the untransposed B; it cannot be "
                "combined with trans_b=True"
            )
        if trans_a:
            a = np.ascontiguousarray(np.asarray(a, dtype=np.float64).T)
        if trans_b:
            b = np.ascontiguousarray(np.asarray(b, dtype=np.float64).T)
        self.counters = Counters()
        self._injector = injector
        self._visit = no_visit if injector is None else injector.visit
        self._eager_reports = []
        tr = self._tr = self.tracer if self.tracer.enabled else None
        if tr is not None and injector is not None:
            try:
                # injectors publish fault.injected events through the tracer
                injector.tracer = tr
            except AttributeError:
                pass
        hook = self._make_tile_hook(on_tile)
        if tr is not None and not self._root_active:
            # the FT root span covers verification and recovery too, so
            # open it here rather than letting BlockedGemm.gemm own it
            self._root_active = True
            args = {"ft": self.ft}
            ashape, bshape = np.shape(a), np.shape(b)
            if len(ashape) == 2 and len(bshape) == 2:
                args.update(m=int(ashape[0]), k=int(ashape[1]),
                            n=int(bshape[1]))
            try:
                with tr.span("gemm", cat="driver", args=args):
                    result = self._protected_call(
                        a, b, c, alpha, beta, hook, packed_b
                    )
            finally:
                self._root_active = False
            result.trace = self.tracer
        else:
            result = self._protected_call(a, b, c, alpha, beta, hook, packed_b)
        self._release_call_state()
        if request_id is not None:
            result.request_id = request_id
            if result.recovery is not None:
                result.recovery.request_id = request_id
        return result

    def _protected_call(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None,
        alpha: float,
        beta: float,
        hook: TileHook | None,
        packed_b=None,
    ) -> FTGemmResult:
        """The protected loop nest plus the verification epilogue."""
        out = super().gemm(
            a, b, c, alpha=alpha, beta=beta, on_tile=hook, packed_b=packed_b
        )
        reports: list[VerificationReport] = list(self._eager_reports)
        verified, recovery = True, None
        if self.ft:
            final_reports, verified, recovery = verify(
                out, self._fused.ledger, a=self._a, b=self._b,
                alpha=self._alpha, beta=self._beta, c0=self._c0,
                config=self.ft_config, counters=self.counters,
                injector=self._injector, tracer=self._tr,
            )
            reports.extend(final_reports)
        return FTGemmResult(
            c=out,
            counters=self.counters,
            reports=reports,
            verified=verified,
            ft_enabled=self.ft,
            recovery=recovery,
        )

    def _make_tile_hook(self, user_hook: TileHook | None) -> TileHook | None:
        if user_hook is None and injection_allows_batched(self._injector):
            # no per-tile consumer: leave the hook out entirely so the
            # dispatch layer is free to take the batched fast path
            return None
        visit = self._visit

        def hook(c_tile: np.ndarray, i0: int, j0: int) -> None:
            visit("microkernel", c_tile)
            if user_hook is not None:
                user_hook(c_tile, i0, j0)

        return hook

    def _resolve_mode(self, on_tile: TileHook | None) -> str:
        if self.ft_config.verify_mode == "eager":
            # the eager probes read the partial C after every K-block,
            # which only the blocked tile schedule produces
            return "tile"
        if (
            on_tile is None
            and self.sink is None
            and self.config.dispatch != "tile"
            and injection_allows_batched(self._injector)
        ):
            return "batched"
        return super()._resolve_mode(on_tile)

    def _fast_path(self) -> bool:
        """Fault injection observes every pass at per-(p, j, i) granularity;
        clean-path optimizations stay off while an injector is attached so
        injected campaigns hit the exact schedule the planner counted."""
        return super()._fast_path() and self._injector is None

    def _c_pristine(self) -> bool:
        """An injector may strike the fresh C in the scaling pass; the
        contraction must then accumulate onto it, never overwrite it."""
        return super()._c_pristine() and self._injector is None

    def _release_call_state(self) -> None:
        self._fused: FusedPasses | None = None
        self._injector = None
        self._visit = no_visit
        self._eager_reports: list[VerificationReport] = []
        self._a = self._b = self._c0 = None
        self._alpha, self._beta = 1.0, 0.0

    # --------------------------------------------------- fused driver stages
    def _begin(self, m, n, k, a, b, c, alpha, beta) -> None:
        self._a, self._b, self._alpha, self._beta = a, b, alpha, beta
        self._c0 = None
        if not self.ft:
            return
        tr = self._tr
        with (tr.span("prologue", cat="checksum", args={"m": m, "k": k})
              if tr is not None else NULL_SPAN):
            self._fused = FusedPasses(
                self.ft_config, m, n, alpha=alpha, counters=self.counters,
                visit=self._visit, tracer=tr,
            )
            self._fused.encode_a(a)
            if beta != 0.0 and self.ft_config.keep_original_c:
                self._c0 = c.copy()

    def _scale_c(self, c: np.ndarray, beta: float) -> None:
        if not self.ft:
            super()._scale_c(c, beta)
            self._visit("scale", c)
            return
        if beta == 0.0 and self._c_fresh and self._injector is None:
            # C was freshly allocated as zeros and there is no injector
            # needing the DMR window: no scaling arithmetic happens, so
            # there is nothing to protect, encode, count, or store
            return
        self._fused.encode_c(c, 0, beta, super()._scale_c)

    def _admit_packed_b(self, packed_b, b, k, n):
        """Injected runs decline the cached grid: fault campaigns count on
        the exact per-pass schedule (every pack_b site visited), and a
        cached panel must never absorb or reorder an injection."""
        if packed_b is not None and self._injector is not None:
            return None
        return super()._admit_packed_b(packed_b, b, k, n)

    def _pack_b_cached(
        self, grid, p_idx, j_idx, p0, plen, j0, jlen
    ) -> PackedPanels:
        """Serve B̃ and replay the B-side fused checksum updates from the
        cached encoding. Only reachable on clean runs (admission declines
        the grid when an injector is attached), so no sites are visited."""
        blk = grid.block(p_idx, j_idx)
        if self.ft:
            with self._fused.span("pack_b_cached", p0=p0, j0=j0):
                self._fused.update_b_cached(blk, p0, j0)
        return blk.packed

    def _pack_b_block(self, b, p0, plen, j0, jlen) -> PackedPanels:
        packed = super()._pack_b_block(b, p0, plen, j0, jlen)
        if self.ft:
            with self._fused.span("pack_b", p0=p0, j0=j0):
                self._fused.update_b(b[p0 : p0 + plen, j0 : j0 + jlen], p0, j0)
        self._visit("pack_b", packed.data)
        return packed

    def _pack_a_block(self, a, i0, ilen, p0, plen, alpha, *, first_j) -> PackedPanels:
        packed = super()._pack_a_block(a, i0, ilen, p0, plen, alpha, first_j=first_j)
        if self.ft:
            with self._fused.span("pack_a", i0=i0, p0=p0):
                self._fused.update_a(a[i0 : i0 + ilen, p0 : p0 + plen], i0)
        self._visit("pack_a", packed.data)
        return packed

    def _reuse_a_block(self, a, packed, i0, ilen, p0, plen, alpha) -> None:
        """Only reached on the clean fast path (no injector), so no sites
        are visited."""
        if self.ft:
            with self._fused.span("reuse_a", i0=i0, p0=p0):
                self._fused.update_a_reused(packed.rows()[:ilen], i0)

    def _b_block_pass(self, b, p_idx, j_idx, p0, plen, j0, jlen) -> None:
        """The pack-B fused pass of the batched schedule, over the unpacked
        block (or replayed from the panel cache). Batched runs carry no
        kernel-site plan, so no pack site is visited."""
        super()._b_block_pass(b, p_idx, j_idx, p0, plen, j0, jlen)
        if not self.ft:
            return
        if self._b_grid is not None:
            with self._fused.span("pack_b_cached", p0=p0, j0=j0):
                self._fused.update_b_cached(self._b_grid.block(p_idx, j_idx), p0, j0)
        else:
            with self._fused.span("pack_b", p0=p0, j0=j0):
                self._fused.update_b(b[p0 : p0 + plen, j0 : j0 + jlen], p0, j0)

    def _a_block_pass(self, a, i0, ilen, p0, plen, *, first_j) -> None:
        """The pack-A fused pass of the batched schedule, over the
        unpacked block of A."""
        super()._a_block_pass(a, i0, ilen, p0, plen, first_j=first_j)
        if self.ft:
            with self._fused.span("pack_a", i0=i0, p0=p0):
                self._fused.update_a(a[i0 : i0 + ilen, p0 : p0 + plen], i0)

    def _contract(self, a, b, c, alpha) -> None:
        """One contraction writes all of C; the reference sums then read
        it whole, as the last K-block's kernels would have."""
        super()._contract(a, b, c, alpha)
        if self.ft:
            self._fused.collect_refs(c)

    def _run_macro(self, packed_a, packed_b, c_block, *, i0, j0, last_p, on_tile) -> None:
        if not (self.ft and last_p):
            # non-final K-blocks run the plain macro by design: their
            # contributions were mirrored at pack time (row_pred/col_pred
            # already include this panel), and the fused row_ref/col_ref
            # verification fires once, on the last_p pass below
            super()._run_macro(  # analysis: ignore[ledger-coverage] -- mirrored at pack time; fused verify runs on last_p
                packed_a, packed_b, c_block, i0=i0, j0=j0, last_p=last_p, on_tile=on_tile
            )
            return
        tr = self._tr
        kwargs = self._fused.refs(i0, c_block.shape[0], j0, c_block.shape[1])
        kwargs.update(
            counters=self.counters,
            tracer=tr,
            trace_args=({"i0": i0, "j0": j0, "refs": True}
                        if tr is not None else None),
        )
        macro_kernel(packed_a, packed_b, c_block, on_tile=on_tile, **kwargs)
        self._emit_macro_traffic(packed_a, packed_b, c_block, i0, j0)

    def _after_p(self, p_idx: int, last_p: bool, c: np.ndarray) -> None:
        """Eager-mode probe: compare running checksums after each K-block.

        Detection-only (correction still happens at the final verification);
        costs an O(MN) pass per K-block, which is exactly the non-fused
        overhead the paper eliminates — hence debug-only.
        """
        if not self.ft or self.ft_config.verify_mode != "eager" or last_p:
            return
        ledger = self._fused.ledger
        row_now = c.sum(axis=0)
        col_now = c.sum(axis=1)
        self.counters.checksum_flops += 2 * c.size
        self.counters.ft_extra_bytes += c.nbytes
        self.counters.verifications += 1
        m, k = self._a.shape
        tol_rows, tol_cols = envelope_tolerances(
            ledger, m, self._b.shape[1], k, beta=self._beta,
            tolerance=self.ft_config.tolerance,
        )
        pattern = locate(
            row_now - ledger.row_pred, col_now - ledger.col_pred, tol_rows, tol_cols
        )
        if pattern.kind != "clean":
            self._eager_reports.append(
                VerificationReport(
                    round_index=-(p_idx + 1),  # negative: eager probes
                    pattern_kind=pattern.kind,
                    flagged_rows=tuple(int(i) for i in pattern.rows),
                    flagged_cols=tuple(int(j) for j in pattern.cols),
                )
            )
