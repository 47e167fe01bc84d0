"""The macro kernel: one ``M_C x N_C`` block of C updated from packed panels.

Two implementations of the same contraction live here:

- :func:`macro_kernel` sweeps the micro kernel over every (A-panel,
  B-panel) pair — the faithful model of the paper's register-tile loop.
  Two extension points exist for the layers above:

  - ``on_tile(c_tile, i0, j0)`` is called after each tile update with a
    writable view — the fault injector corrupts tiles here (the paper
    injects errors "into each of our computing kernels"). It runs *before*
    reference checksums are read from the tile: a soft error in an FMA
    result is held in the same register the fused checksum code then
    consumes, which is exactly why the error becomes visible as a
    reference-vs-predicted mismatch;
  - when ``row_ref``/``col_ref`` are given, the reference checksums of the
    freshly updated tiles are accumulated into them (Section 2.2's
    register-level reuse). The caller passes them only on the final K-block
    iteration, when C holds its final value.

- :func:`macro_kernel_batched` computes all tiles of the block in **one**
  vectorized contraction over the flattened panel arrays and derives the
  fused reference checksums as block-level reductions. It produces the same
  values (up to floating-point summation order) and books the *identical*
  counter totals — microkernel calls are counted per logical tile even
  though no Python-level tile loop runs — but offers no per-tile hook; the
  dispatch layer falls back to :func:`macro_kernel` whenever per-tile
  granularity is required. Only the parallel scheme calls it (its team
  packs a shared B̃); the serial batched schedule contracts whole
  operands in :meth:`~repro.gemm.driver.BlockedGemm._contract` instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.gemm.microkernel import microkernel, tile_flops
from repro.gemm.packing import PackedPanels
from repro.obs.tracer import NULL_SPAN
from repro.simcpu.counters import Counters
from repro.util.errors import ShapeError

TileHook = Callable[[np.ndarray, int, int], None]


def _trace_span(tracer, name: str, trace_args: dict | None):
    """A compute-phase span for one macro-kernel sweep, or the no-op span.

    ``trace_args`` may carry a ``"tid"`` key (the logical team thread, set
    by the parallel driver) — it becomes the span's thread row rather than
    a payload argument.
    """
    if tracer is None:
        return NULL_SPAN
    args = dict(trace_args) if trace_args else {}
    tid = args.pop("tid", 0)
    return tracer.span(name, cat="compute", tid=tid, args=args or None)


def _check_macro_args(
    packed_a: PackedPanels,
    packed_b: PackedPanels,
    c_block: np.ndarray,
    row_ref: np.ndarray | None,
    col_ref: np.ndarray | None,
    row_ref_w: np.ndarray | None,
    col_ref_w: np.ndarray | None,
    row_weights: np.ndarray | None,
    col_weights: np.ndarray | None,
) -> tuple[bool, bool]:
    """Shared argument validation; returns ``(collect, weighted)``."""
    mlen, nlen = c_block.shape
    if packed_a.valid != mlen or packed_b.valid != nlen:
        raise ShapeError(
            f"C block {c_block.shape} does not match packed extents "
            f"({packed_a.valid}, {packed_b.valid})"
        )
    if packed_a.depth != packed_b.depth:
        raise ShapeError(
            f"packed depths differ: {packed_a.depth} vs {packed_b.depth}"
        )
    collect = row_ref is not None or col_ref is not None
    if collect and (row_ref is None or col_ref is None):
        raise ShapeError("row_ref and col_ref must be given together")
    if collect and (row_ref.shape != (nlen,) or col_ref.shape != (mlen,)):
        raise ShapeError(
            f"checksum refs must be ({nlen},) and ({mlen},), got "
            f"{row_ref.shape} and {col_ref.shape}"
        )
    weighted = row_ref_w is not None or col_ref_w is not None
    if weighted:
        if any(v is None for v in (row_ref_w, col_ref_w, row_weights, col_weights)):
            raise ShapeError(
                "weighted refs need row_ref_w, col_ref_w, row_weights and "
                "col_weights together"
            )
        if not collect:
            raise ShapeError("weighted refs require the plain refs as well")
        if row_weights.shape != (mlen,) or col_weights.shape != (nlen,):
            raise ShapeError(
                f"weights must be ({mlen},) and ({nlen},), got "
                f"{row_weights.shape} and {col_weights.shape}"
            )
        if row_ref_w.shape != (nlen,) or col_ref_w.shape != (mlen,):
            raise ShapeError(
                f"weighted refs must be ({nlen},) and ({mlen},), got "
                f"{row_ref_w.shape} and {col_ref_w.shape}"
            )
    return collect, weighted


def macro_kernel(
    packed_a: PackedPanels,
    packed_b: PackedPanels,
    c_block: np.ndarray,
    *,
    row_ref: np.ndarray | None = None,
    col_ref: np.ndarray | None = None,
    row_ref_w: np.ndarray | None = None,
    col_ref_w: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
    col_weights: np.ndarray | None = None,
    on_tile: TileHook | None = None,
    counters: Counters | None = None,
    tracer=None,
    trace_args: dict | None = None,
) -> None:
    """Compute ``c_block += Ã · B̃`` in register tiles, in place.

    ``c_block`` is an ``(mlen, nlen)`` writable view of C with
    ``mlen == packed_a.valid`` and ``nlen == packed_b.valid``. ``row_ref``
    (length ``nlen``) and ``col_ref`` (length ``mlen``) — both optional,
    together — receive ``+= eᵀC_block`` / ``+= C_block·e`` fused into the
    tile sweep.

    The weighted-checksum scheme additionally passes ``row_ref_w`` /
    ``col_ref_w`` with ``row_weights`` (the *global* row weights of this
    block's rows, length ``mlen``) and ``col_weights`` (length ``nlen``):
    they receive ``+= w_rowsᵀ C_block`` / ``+= C_block · w_cols``.
    """
    mlen, nlen = c_block.shape
    collect, weighted = _check_macro_args(
        packed_a, packed_b, c_block,
        row_ref, col_ref, row_ref_w, col_ref_w, row_weights, col_weights,
    )

    mr = packed_a.r
    nr = packed_b.r
    depth = packed_a.depth
    # fail-continue semantics: corrupted operands (inf/NaN from injected
    # faults) must flow through the kernel silently, as they would through
    # hardware FMAs — detection is the checksum layer's job
    with _trace_span(tracer, "macro_kernel", trace_args), \
            np.errstate(invalid="ignore", over="ignore"):
        for ia in range(packed_a.n_panels):
            i0 = ia * mr
            tm = packed_a.panel_extent(ia)
            a_panel = packed_a.panel(ia)
            for jb in range(packed_b.n_panels):
                j0 = jb * nr
                tn = packed_b.panel_extent(jb)
                b_panel = packed_b.panel(jb)
                c_tile = c_block[i0 : i0 + tm, j0 : j0 + tn]
                update = microkernel(a_panel, b_panel)
                c_tile += update[:tm, :tn]
                if on_tile is not None:
                    on_tile(c_tile, i0, j0)
                if collect:
                    row_ref[j0 : j0 + tn] += c_tile.sum(axis=0)
                    col_ref[i0 : i0 + tm] += c_tile.sum(axis=1)
                if weighted:
                    row_ref_w[j0 : j0 + tn] += row_weights[i0 : i0 + tm] @ c_tile
                    col_ref_w[i0 : i0 + tm] += c_tile @ col_weights[j0 : j0 + tn]
                if counters is not None:
                    counters.microkernel_calls += 1
                    counters.fma_flops += tile_flops(mr, nr, depth)
                    if collect:
                        counters.checksum_flops += 2 * tm * tn
                    if weighted:
                        counters.checksum_flops += 4 * tm * tn


def macro_kernel_batched(
    packed_a: PackedPanels,
    packed_b: PackedPanels,
    c_block: np.ndarray,
    *,
    row_ref: np.ndarray | None = None,
    col_ref: np.ndarray | None = None,
    row_ref_w: np.ndarray | None = None,
    col_ref_w: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
    col_weights: np.ndarray | None = None,
    counters: Counters | None = None,
    tracer=None,
    trace_args: dict | None = None,
) -> None:
    """Compute ``c_block += Ã · B̃`` as one block-level contraction.

    Semantically identical to :func:`macro_kernel` (same arguments, same
    counter totals, values equal up to floating-point summation order) but
    every micro tile is produced by a single matrix product over the
    flattened panel arrays, and the fused reference checksums are block
    reductions of the freshly updated C block instead of per-tile sums.

    There is deliberately no ``on_tile`` parameter: per-tile observation is
    what forces the dispatch layer back onto :func:`macro_kernel`.
    """
    mlen, nlen = c_block.shape
    collect, weighted = _check_macro_args(
        packed_a, packed_b, c_block,
        row_ref, col_ref, row_ref_w, col_ref_w, row_weights, col_weights,
    )
    depth = packed_a.depth
    with _trace_span(tracer, "macro_kernel_batched", trace_args), \
            np.errstate(invalid="ignore", over="ignore"):
        # (padded_m, depth) @ (depth, padded_n): one BLAS call for the block;
        # the padded rows/columns fall away in the slice-accumulate
        update = packed_a.rows() @ packed_b.cols()
        c_block += update[:mlen, :nlen]
        if collect:
            row_ref += c_block.sum(axis=0)
            col_ref += c_block.sum(axis=1)
        if weighted:
            row_ref_w += row_weights @ c_block
            col_ref_w += c_block @ col_weights
    if counters is not None:
        tiles = packed_a.n_panels * packed_b.n_panels
        counters.microkernel_calls += tiles
        counters.fma_flops += tiles * tile_flops(packed_a.r, packed_b.r, depth)
        if collect:
            counters.checksum_flops += 2 * mlen * nlen
        if weighted:
            counters.checksum_flops += 4 * mlen * nlen
