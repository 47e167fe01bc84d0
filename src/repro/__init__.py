"""FT-GEMM reproduction — fault-tolerant high-performance GEMM (HPDC'23).

A full Python rebuild of Wu et al., *"FT-GEMM: A Fault Tolerant High
Performance GEMM Implementation on x86 CPUs"* (HPDC 2023): the GotoBLAS-style
blocked GEMM substrate, the fused ABFT scheme, the parallel Figure-1 design,
a simulated Cascade Lake machine model, fault-injection campaigns, calibrated
baseline libraries, and a benchmark harness regenerating every figure of the
paper's evaluation. See DESIGN.md for the system inventory and EXPERIMENTS.md
for paper-vs-reproduced results (modeled figures labelled as such).

Quick start::

    import numpy as np
    from repro import FTGemm

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((500, 300)), rng.standard_normal((300, 400))
    result = FTGemm().gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10)
"""

from repro.core import (
    FTGemm,
    FTGemmConfig,
    FTGemmResult,
    ParallelFTGemm,
    VerificationReport,
)
from repro.gemm import BlockedGemm, BlockingConfig, gemm_reference
from repro.simcpu import MachineSpec
from repro.faults import (
    CampaignConfig,
    FaultInjector,
    InjectionPlan,
    run_campaign,
)

__version__ = "1.0.0"

__all__ = [
    "FTGemm",
    "FTGemmConfig",
    "FTGemmResult",
    "ParallelFTGemm",
    "VerificationReport",
    "BlockedGemm",
    "BlockingConfig",
    "gemm_reference",
    "MachineSpec",
    "CampaignConfig",
    "FaultInjector",
    "InjectionPlan",
    "run_campaign",
    "__version__",
]
