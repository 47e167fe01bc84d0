"""Batched protected GEMM.

Modern BLAS exposes batched interfaces (many small products in one call);
fault-tolerant variants amortize the per-call fixed costs the same way.
:func:`ft_gemm_batched` runs a sequence of protected products through one
driver instance, aggregating the evidence — and supports the *strided*
special case (one 3-D tensor per operand) that dominates ML workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.results import FTGemmResult
from repro.simcpu.counters import Counters
from repro.util.errors import ShapeError


@dataclass
class BatchedResult:
    """Aggregate outcome of one batched call."""

    results: list[FTGemmResult] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)

    @property
    def c(self) -> list[np.ndarray]:
        return [r.c for r in self.results]

    @property
    def verified(self) -> bool:
        return all(r.verified for r in self.results)

    @property
    def detected(self) -> int:
        return sum(r.detected for r in self.results)

    @property
    def corrected(self) -> int:
        return sum(r.corrected for r in self.results)

    def stacked(self) -> np.ndarray:
        """The outputs as one ``(batch, m, n)`` tensor (uniform shapes only)."""
        shapes = {r.c.shape for r in self.results}
        if len(shapes) != 1:
            raise ShapeError(f"non-uniform batch shapes: {sorted(shapes)}")
        return np.stack([r.c for r in self.results])


def ft_gemm_batched(
    a_batch,
    b_batch,
    c_batch=None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    config: FTGemmConfig | None = None,
    injector=None,
    dispatch: str | None = None,
) -> BatchedResult:
    """Protected ``C_i = alpha * A_i @ B_i + beta * C_i`` for every i.

    Operands may be sequences of matrices (shapes may vary per item) or 3-D
    arrays (the strided-batched case). One driver instance is reused across
    the batch — so its packing workspace is allocated once and reused by
    every item of a uniform-shape (strided) batch; the injector, when given,
    spans the whole batch — its invocation counters keep running across
    items, so a campaign can strike anywhere in the batch.

    ``dispatch`` overrides the blocking config's macro-kernel mode for this
    batch (``"auto"``/``"tile"``); injected batches fall back
    to tile mode regardless, per the dispatch rules.
    """
    config = (config or FTGemmConfig()).validate()
    if dispatch is not None:
        config = config.with_(blocking=config.blocking.with_(dispatch=dispatch))
    a_list = _split(a_batch, "A")
    b_list = _split(b_batch, "B")
    if len(a_list) != len(b_list):
        raise ShapeError(
            f"batch sizes differ: {len(a_list)} A operands vs {len(b_list)} B"
        )
    if c_batch is None:
        c_list = [None] * len(a_list)
    else:
        c_list = _split(c_batch, "C")
        if len(c_list) != len(a_list):
            raise ShapeError(
                f"batch sizes differ: {len(a_list)} A operands vs {len(c_list)} C"
            )
    driver = FTGemm(config)
    out = BatchedResult()
    for a, b, c in zip(a_list, b_list, c_list):
        result = driver.gemm(a, b, c, alpha=alpha, beta=beta, injector=injector)
        out.results.append(result)
        out.counters = out.counters + result.counters
    return out


def _split(batch, name: str) -> list[np.ndarray]:
    if isinstance(batch, np.ndarray):
        if batch.ndim != 3:
            raise ShapeError(
                f"{name} batch array must be 3-D (batch, rows, cols), "
                f"got shape {batch.shape}"
            )
        return [batch[i] for i in range(batch.shape[0])]
    items = list(batch)
    if not items:
        raise ShapeError(f"empty {name} batch")
    return [np.asarray(x, dtype=np.float64) for x in items]
