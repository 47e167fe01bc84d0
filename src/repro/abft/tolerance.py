"""Round-off tolerance theory for checksum verification.

A checksum residual (reference minus predicted) is never exactly zero in
floating point: the two sides sum the same products in different orders. The
verifier must use a threshold that (a) never flags pure round-off as a soft
error — false positives trigger needless correction/recompute work — and
(b) stays far below the magnitude of the errors worth catching.

Thresholds are per-entry bounds from the standard model
``|fl(Σ x_i) − Σ x_i| ≤ γ_n Σ|x_i|`` with ``γ_n = n·eps``. For the row
residual of column ``j`` the accumulated products are bounded by
``(eᵀ|A|)·|B|[:, j]`` (plus the ``β·C₀`` leg), giving a vector of
tolerances at O(MK + KN) cost — negligible next to the GEMM. (The FT
drivers accumulate the same envelopes fused into their passes; see
:func:`repro.core.verification.envelope_tolerances`.)

The bounds include an absolute floor so all-zero inputs don't produce a zero
threshold (any nonzero injected error must still be detectable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """How verification thresholds are computed.

    ``safety`` multiplies the theoretical bound; the default 8 covers the
    difference between strictly sequential summation assumed by the bound
    and the blocked/pairwise orders the implementation actually uses.
    """

    safety: float = 8.0
    floor: float = 64.0 * EPS

    def __post_init__(self) -> None:
        if self.safety <= 0:
            raise ConfigError(f"safety must be positive, got {self.safety}")
        if self.floor < 0:
            raise ConfigError(f"floor must be non-negative, got {self.floor}")


def gamma(n_terms: int) -> float:
    """The ``γ_n = n·eps`` factor of the standard round-off model."""
    if n_terms < 0:
        raise ConfigError(f"n_terms must be non-negative, got {n_terms}")
    return n_terms * EPS


def roundoff_bound_rows(
    a: np.ndarray,
    b: np.ndarray,
    c0_scaled_abs_rowsum: np.ndarray | None,
    config: ToleranceConfig,
) -> np.ndarray:
    """Per-column tolerance for the row-checksum residual (length N).

    ``c0_scaled_abs_rowsum`` is ``eᵀ|β·C₀|`` when ``β ≠ 0`` (the initial-C
    leg of the checksum), else ``None``.
    """
    m, k = a.shape
    envelope = (np.abs(a).sum(axis=0) @ np.abs(b)) * gamma(k + m + 2)
    if c0_scaled_abs_rowsum is not None:
        envelope = envelope + c0_scaled_abs_rowsum * gamma(m + 2)
    return config.safety * envelope + config.floor


def roundoff_bound_cols(
    a: np.ndarray,
    b: np.ndarray,
    c0_scaled_abs_colsum: np.ndarray | None,
    config: ToleranceConfig,
) -> np.ndarray:
    """Per-row tolerance for the column-checksum residual (length M)."""
    k, n = b.shape
    envelope = (np.abs(a) @ np.abs(b).sum(axis=1)) * gamma(k + n + 2)
    if c0_scaled_abs_colsum is not None:
        envelope = envelope + c0_scaled_abs_colsum * gamma(n + 2)
    return config.safety * envelope + config.floor


def residual_tolerances(
    a: np.ndarray,
    b: np.ndarray,
    *,
    beta: float = 0.0,
    c0_abs_rowsum: np.ndarray | None = None,
    c0_abs_colsum: np.ndarray | None = None,
    config: ToleranceConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tolerance vectors ``(tol_rows, tol_cols)`` for the two residuals.

    ``c0_abs_rowsum``/``c0_abs_colsum`` are ``eᵀ|C₀|`` and ``|C₀|e`` of the
    *unscaled* input C — the FT driver records them during the fused scaling
    pass; they are folded in with ``|β|`` here.
    """
    config = config or ToleranceConfig()
    scaled_row = None
    scaled_col = None
    if beta != 0.0:
        if c0_abs_rowsum is None or c0_abs_colsum is None:
            raise ConfigError(
                "beta != 0 requires the |C0| row/col sums recorded during scaling"
            )
        scaled_row = abs(beta) * c0_abs_rowsum
        scaled_col = abs(beta) * c0_abs_colsum
    tol_rows = roundoff_bound_rows(a, b, scaled_row, config)
    tol_cols = roundoff_bound_cols(a, b, scaled_col, config)
    return tol_rows, tol_cols
