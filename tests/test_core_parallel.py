"""Parallel FT-GEMM: the Figure-1 scheme."""

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import Additive
from repro.gemm.blocking import BlockingConfig
from repro.gemm.reference import gemm_reference
from repro.parallel.team import SimulatedTeam
from repro.util.errors import ConfigError


@pytest.fixture
def pg(small_config):
    return ParallelFTGemm(small_config, n_threads=3)


@pytest.mark.parametrize("threads", [1, 2, 3, 5, 8])
def test_matches_oracle_any_thread_count(small_config, rng, threads):
    a = rng.standard_normal((41, 23))
    b = rng.standard_normal((23, 37))
    result = ParallelFTGemm(small_config, n_threads=threads).gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11, atol=1e-11)


def test_more_threads_than_rows(small_config, rng):
    a = rng.standard_normal((3, 9))
    b = rng.standard_normal((9, 15))
    result = ParallelFTGemm(small_config, n_threads=6).gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


@pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (-0.5, 0.75), (1.0, 0.0)])
def test_alpha_beta(pg, rng, alpha, beta):
    a = rng.standard_normal((29, 17))
    b = rng.standard_normal((17, 33))
    c0 = rng.standard_normal((29, 33))
    result = pg.gemm(a, b, c0.copy(), alpha=alpha, beta=beta)
    assert result.verified
    np.testing.assert_allclose(
        result.c, gemm_reference(a, b, c0, alpha=alpha, beta=beta),
        rtol=1e-11, atol=1e-11,
    )


def test_bitwise_identical_to_serial_single_thread(small_config, rng):
    """One-thread parallel must agree with the serial tile schedule bit for
    bit — same loop nest, same packing, same kernels. (The serial batched
    schedule computes C in one contraction, a different summation order.)"""
    a = rng.standard_normal((25, 19))
    b = rng.standard_normal((19, 27))
    serial_tile = small_config.with_(
        blocking=small_config.blocking.with_(dispatch="tile")
    )
    serial = FTGemm(serial_tile).gemm(a, b).c
    parallel = ParallelFTGemm(small_config, n_threads=1).gemm(a, b).c
    np.testing.assert_array_equal(serial, parallel)
    np.testing.assert_allclose(
        FTGemm(small_config).gemm(a, b).c, parallel, rtol=1e-12, atol=1e-12
    )


def test_thread_count_does_not_change_result_values(small_config, rng):
    """The M-partition only splits row ownership; each C element is computed
    by exactly one thread through the same kernel sequence, so results are
    bit-identical across thread counts."""
    a = rng.standard_normal((31, 22))
    b = rng.standard_normal((22, 29))
    results = [
        ParallelFTGemm(small_config, n_threads=t).gemm(a, b).c
        for t in (1, 2, 4)
    ]
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[0], results[2])


def test_schedule_independence(small_config, rng):
    """Rotating the simulated step order must not change anything — a
    failure here means a data race in the shared-buffer choreography."""
    a = rng.standard_normal((26, 18))
    b = rng.standard_normal((18, 22))
    outs = []
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        driver = ParallelFTGemm(small_config, n_threads=3)
        # swap in a permuted team via the factory hook
        import repro.core.parallel as mod

        original = mod.make_team
        mod.make_team = lambda n, backend, **kw: SimulatedTeam(
            n, order=list(order)
        )
        try:
            outs.append(driver.gemm(a, b).c)
        finally:
            mod.make_team = original
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])


def test_threads_backend_matches_simulated(small_config, rng):
    a = rng.standard_normal((37, 21))
    b = rng.standard_normal((21, 31))
    sim = ParallelFTGemm(small_config, n_threads=4, backend="simulated").gemm(a, b)
    real = ParallelFTGemm(small_config, n_threads=4, backend="threads").gemm(a, b)
    assert sim.verified and real.verified
    np.testing.assert_array_equal(sim.c, real.c)


def test_barriers_counted(pg, rng):
    a = rng.standard_normal((20, 20))
    result = pg.gemm(a, a.copy())
    # 1 prologue barrier + 2 per (p, j) block, per thread
    from repro.gemm.blocking import n_blocks

    n_pj = n_blocks(20, pg.config.blocking.kc) * n_blocks(20, pg.config.blocking.nc)
    assert result.counters.barriers == 3 * (1 + 2 * n_pj)


def test_injection_microkernel_corrected(pg, rng):
    a = rng.standard_normal((30, 20))
    b = rng.standard_normal((20, 25))
    inj = FaultInjector(
        InjectionPlan.single("microkernel", 5, model=Additive(magnitude=44.0))
    )
    result = pg.gemm(a, b, injector=inj)
    assert inj.n_injected == 1
    assert result.verified
    assert result.corrected + result.recomputed_blocks >= 1
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_injection_shared_pack_b_recovered(pg, rng):
    """Corruption in the cooperatively packed shared B̃ poisons one thread's
    chunk but all row-owners consume it — the checksums still localize it."""
    a = rng.standard_normal((30, 20))
    b = rng.standard_normal((20, 25))
    inj = FaultInjector(
        InjectionPlan.single("pack_b", 1, model=Additive(magnitude=17.0))
    )
    result = pg.gemm(a, b, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_injection_scale_dmr_parallel(pg, rng):
    a = rng.standard_normal((24, 16))
    b = rng.standard_normal((16, 21))
    c0 = rng.standard_normal((24, 21))
    inj = FaultInjector(
        InjectionPlan.single("scale", 1, model=Additive(magnitude=8.0))
    )
    result = pg.gemm(a, b, c0.copy(), beta=2.0, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b + 2.0 * c0, rtol=1e-10, atol=1e-10)


def test_ft_disabled_parallel(small_config, rng):
    a = rng.standard_normal((22, 14))
    b = rng.standard_normal((14, 26))
    ori = ParallelFTGemm(small_config.with_(enable_ft=False), n_threads=3)
    result = ori.gemm(a, b)
    assert not result.ft_enabled
    assert result.counters.checksum_flops == 0
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_eager_mode_rejected():
    with pytest.raises(ConfigError, match="eager"):
        ParallelFTGemm(FTGemmConfig(verify_mode="eager"), n_threads=2)


def test_invalid_thread_count():
    with pytest.raises(ConfigError):
        ParallelFTGemm(n_threads=0)


def test_counters_reduced_across_threads(pg, rng):
    a = rng.standard_normal((30, 16))
    b = rng.standard_normal((16, 24))
    result = pg.gemm(a, b)
    # total FMA flops match the padded-tile accounting regardless of threads
    serial = FTGemm(pg.config).gemm(a, b)
    assert result.counters.fma_flops > 0
    assert result.counters.ft_extra_bytes == 0
