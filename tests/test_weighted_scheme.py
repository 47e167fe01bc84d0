"""The weighted-checksum extension (checksum_scheme="weighted")."""

import numpy as np
import pytest

from repro.abft.weighted import resolve_weighted
from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import Additive
from repro.gemm.blocking import BlockingConfig
from repro.util.errors import ConfigError, ShapeError


@pytest.fixture
def cfg():
    return FTGemmConfig(
        blocking=BlockingConfig.small(), checksum_scheme="weighted"
    )


# -------------------------------------------------------- resolver itself
def test_resolver_single_errors_per_row():
    # row 2 has delta 5 at column 7; row 4 has delta -3 at column 1
    res = resolve_weighted(
        [2, 4],
        [5.0, -3.0],
        [5.0 * 8, -3.0 * 2],  # weights are index+1
        n_cols=10,
    )
    assert res.fully_resolved
    assert sorted(res.corrections) == [(2, 7, 5.0), (4, 1, -3.0)]


def test_resolver_rejects_multi_error_rows():
    # residual pair inconsistent with any single column
    res = resolve_weighted([3], [2.0], [2.0 * 5.7], n_cols=10)
    assert res.corrections == []
    assert res.recompute_rows == [3]


def test_resolver_rejects_out_of_range_column():
    res = resolve_weighted([0], [1.0], [99.0], n_cols=10)  # column 98
    assert res.recompute_rows == [0]


def test_resolver_nonfinite_to_recompute():
    res = resolve_weighted([1], [np.nan], [1.0], n_cols=4)
    assert res.recompute_rows == [1]
    res = resolve_weighted([1], [0.0], [1.0], n_cols=4)
    assert res.recompute_rows == [1]


def test_resolver_shape_mismatch():
    with pytest.raises(ShapeError):
        resolve_weighted([1, 2], [1.0], [1.0], n_cols=4)


# ----------------------------------------------------------- scheme config
def test_scheme_validated():
    with pytest.raises(ConfigError):
        FTGemmConfig(checksum_scheme="triple")
    assert FTGemmConfig(checksum_scheme="weighted").weighted
    assert not FTGemmConfig().weighted


# --------------------------------------------------------- serial weighted
def test_clean_run_weighted(cfg, rng):
    a = rng.standard_normal((33, 26))
    b = rng.standard_normal((26, 41))
    result = FTGemm(cfg).gemm(a, b)
    assert result.verified and result.clean_first_pass
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_weighted_costs_more_checksum_flops(cfg, rng):
    a = rng.standard_normal((30, 24))
    b = rng.standard_normal((24, 30))
    dual = FTGemm(cfg.with_(checksum_scheme="dual")).gemm(a, b)
    weighted = FTGemm(cfg).gemm(a, b)
    assert weighted.counters.checksum_flops > dual.counters.checksum_flops
    assert weighted.counters.ft_extra_bytes == 0  # still fully fused


def test_equal_delta_pair_corrected_without_recompute(cfg, rng):
    """THE case the weighted scheme exists for: two errors with identical
    deltas are ambiguous to the dual scheme (it must recompute); weighted
    localization corrects both in place."""
    a = rng.standard_normal((33, 26))
    b = rng.standard_normal((26, 41))
    plan = InjectionPlan(
        schedule={"microkernel": (0, 30)}, model=Additive(magnitude=64.0)
    )
    # dual: recompute path
    dual_inj = FaultInjector(plan)
    dual = FTGemm(cfg.with_(checksum_scheme="dual")).gemm(a, b, injector=dual_inj)
    assert dual.verified
    assert dual.recomputed_blocks > 0

    # weighted: corrected in place, zero recomputed lines
    winj = FaultInjector(plan)
    weighted = FTGemm(cfg).gemm(a, b, injector=winj)
    assert weighted.verified
    assert weighted.corrected >= 2
    assert weighted.recomputed_blocks == 0
    np.testing.assert_allclose(weighted.c, a @ b, rtol=1e-10, atol=1e-10)


def test_single_fault_weighted(cfg, rng):
    a = rng.standard_normal((25, 30))
    b = rng.standard_normal((30, 20))
    inj = FaultInjector(
        InjectionPlan.single("microkernel", 3, model=Additive(magnitude=40.0))
    )
    result = FTGemm(cfg).gemm(a, b, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_many_faults_weighted_campaign(cfg):
    result = run_campaign(
        CampaignConfig(m=40, n=36, k=30, runs=3, errors_per_call=5, seed=17),
        FTGemm(cfg),
    )
    assert result.all_correct
    assert result.injected == 15


def test_weighted_with_alpha_beta(cfg, rng):
    a = rng.standard_normal((22, 18))
    b = rng.standard_normal((18, 27))
    c0 = rng.standard_normal((22, 27))
    inj = FaultInjector(
        InjectionPlan(schedule={"microkernel": (1, 9)}, model=Additive(magnitude=31.0))
    )
    result = FTGemm(cfg).gemm(a, b, c0.copy(), alpha=1.5, beta=-0.5, injector=inj)
    assert result.verified
    np.testing.assert_allclose(
        result.c, 1.5 * (a @ b) - 0.5 * c0, rtol=1e-10, atol=1e-10
    )


def test_weighted_checksum_fault_rederives(cfg, rng):
    a = rng.standard_normal((20, 16))
    b = rng.standard_normal((16, 24))
    inj = FaultInjector(
        InjectionPlan.single("checksum", 1, model=Additive(magnitude=50.0))
    )
    result = FTGemm(cfg).gemm(a, b, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


# ------------------------------------------------------- parallel weighted
def test_parallel_weighted_clean(cfg, rng):
    a = rng.standard_normal((31, 23))
    b = rng.standard_normal((23, 37))
    result = ParallelFTGemm(cfg, n_threads=3).gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_parallel_weighted_matches_serial_bitwise(cfg, rng):
    a = rng.standard_normal((28, 21))
    b = rng.standard_normal((21, 33))
    # the parallel kernels share the serial tile schedule's summation order
    tile = cfg.with_(blocking=cfg.blocking.with_(dispatch="tile"))
    serial = FTGemm(tile).gemm(a, b).c
    parallel = ParallelFTGemm(cfg, n_threads=4).gemm(a, b).c
    np.testing.assert_array_equal(serial, parallel)


def test_parallel_weighted_equal_delta_pair(cfg, rng):
    a = rng.standard_normal((30, 22))
    b = rng.standard_normal((22, 28))
    plan = InjectionPlan(
        schedule={"microkernel": (0, 25)}, model=Additive(magnitude=48.0)
    )
    result = ParallelFTGemm(cfg, n_threads=3).gemm(
        a, b, injector=FaultInjector(plan)
    )
    assert result.verified
    assert result.recomputed_blocks == 0
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_parallel_weighted_campaign(cfg):
    result = run_campaign(
        CampaignConfig(m=32, n=30, k=26, runs=2, errors_per_call=4, seed=23),
        ParallelFTGemm(cfg, n_threads=3),
    )
    assert result.all_correct
