"""Property tests: the parallel scheme and fuzzed error topologies."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.core.verification import ChecksumLedger, Verifier
from repro.simcpu.counters import Counters

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def finite_matrix(rows, cols):
    return hnp.arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
    )


@COMMON
@given(
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    k=st.integers(1, 30),
    threads=st.integers(1, 6),
    scheme=st.sampled_from(["dual", "weighted"]),
    data=st.data(),
)
def test_parallel_bitwise_equals_serial(m, n, k, threads, scheme, data):
    """For every shape, thread count and scheme: the Figure-1 parallel
    driver produces the bit-identical C of the serial tile schedule (each
    element is computed by exactly one thread through the same kernel
    sequence)."""
    a = data.draw(finite_matrix(m, k))
    b = data.draw(finite_matrix(k, n))
    cfg = FTGemmConfig.small(checksum_scheme=scheme)
    serial = FTGemm(
        cfg.with_(blocking=cfg.blocking.with_(dispatch="tile"))
    ).gemm(a, b)
    parallel = ParallelFTGemm(cfg, n_threads=threads).gemm(a, b)
    assert serial.verified and parallel.verified
    np.testing.assert_array_equal(serial.c, parallel.c)


@COMMON
@given(
    n_errors=st.integers(1, 6),
    scheme=st.sampled_from(["dual", "weighted"]),
    data=st.data(),
)
def test_fuzzed_error_topologies_always_resolved(n_errors, scheme, data):
    """Arbitrary (row, col, delta) plantings — any topology hypothesis can
    dream up — must end verified-and-correct, except patterns lying exactly
    in the checksum null space, which are excluded by construction (no two
    planted errors share a row or column here; null-space patterns need
    aligned sign-cancelling rectangles)."""
    m, n = 26, 22
    rows = data.draw(
        st.lists(st.integers(0, m - 1), min_size=n_errors, max_size=n_errors,
                 unique=True)
    )
    cols = data.draw(
        st.lists(st.integers(0, n - 1), min_size=n_errors, max_size=n_errors,
                 unique=True)
    )
    deltas = data.draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e8),
            min_size=n_errors, max_size=n_errors,
        )
    )
    signs = data.draw(
        st.lists(st.sampled_from([1.0, -1.0]), min_size=n_errors,
                 max_size=n_errors)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = rng.standard_normal((m, 15))
    b = rng.standard_normal((15, n))
    cfg = FTGemmConfig.small(checksum_scheme=scheme)
    weighted = scheme == "weighted"

    c = a @ b
    ledger = ChecksumLedger.zeros(m, n, weighted=weighted)
    ledger.row_pred = a.sum(axis=0) @ b
    ledger.col_pred = a @ b.sum(axis=1)
    ledger.env_row = np.abs(a).sum(axis=0) @ np.abs(b)
    ledger.env_col = np.abs(a) @ np.abs(b).sum(axis=1)
    if weighted:
        w_m = np.arange(1.0, m + 1.0)
        w_n = np.arange(1.0, n + 1.0)
        ledger.row_pred_w = (w_m @ a) @ b
        ledger.col_pred_w = a @ (b @ w_n)
    expected = c.copy()
    for i, j, d, s in zip(rows, cols, deltas, signs):
        c[i, j] += s * d
    ledger.row_ref = c.sum(axis=0)
    ledger.col_ref = c.sum(axis=1)
    if weighted:
        ledger.row_ref_w = w_m @ c
        ledger.col_ref_w = c @ w_n
    verifier = Verifier(
        a, b, alpha=1.0, beta=0.0, c0=None, config=cfg, counters=Counters()
    )
    reports, verified = verifier.finalize(c, ledger)
    assert verified
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(c - expected).max() < 1e-7 * scale
