"""Cross-version parity pins for the protected GEMM drivers.

Every case runs one protected call on fixed operands and reduces the
observable outcome — the sha256 of C, every ``Counters`` field, the
canonical injection records, ``verified``, the verification report
patterns, the recovery strategies and (for traced cases) a digest of the
trace events without timestamps — to a JSON record. The records in
``tests/data/golden_parity.json`` were produced by an earlier version of
the drivers; a refactor that claims bit-for-bit equal behaviour must keep
every record equal.

The grid: serial ``FTGemm`` in ``tile`` and ``auto`` dispatch, the
Figure-1 ``ParallelFTGemm`` on the simulated team with T = 2 and 4, the
dual and weighted checksum schemes, beta in {0, 0.5}, and four fault
plans — clean, seeded 2-error bit flips and stuck bits on the kernel
sites, and a checksum/scale-only plan (which keeps batched dispatch).
A few extra cases cover panel-cache hits, eager probes and tracing.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python -m tests.test_golden_parity --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import (
    plan_for_gemm,
    site_invocation_counts,
    site_invocation_counts_parallel,
)
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import BitFlip, StuckBit
from repro.gemm.blocking import BlockingConfig
from repro.gemm.panelcache import encode_b
from repro.obs.tracer import Tracer
from repro.util.errors import UncorrectableError

FIXTURE = Path(__file__).parent / "data" / "golden_parity.json"

M, N, K = 37, 29, 23

DRIVERS = ("serial-tile", "serial-auto", "par2", "par4")
SCHEMES = ("dual", "weighted")
BETAS = (0.0, 0.5)
PLANS = ("clean", "bitflip2", "stuckbit2", "checksum-scale")


def _case_ids() -> list[str]:
    ids = [
        f"{drv}/{scheme}/b{beta}/{plan}"
        for drv in DRIVERS
        for scheme in SCHEMES
        for beta in BETAS
        for plan in PLANS
    ]
    ids += [
        f"serial-cached/{scheme}/b{beta}/clean"
        for scheme in SCHEMES
        for beta in BETAS
    ]
    ids += [
        f"serial-eager/{scheme}/b0.5/{plan}"
        for scheme in SCHEMES
        for plan in ("clean", "bitflip2")
    ]
    ids += [
        f"{drv}-traced/dual/b0.5/{plan}"
        for drv in ("serial-auto", "serial-tile", "par2")
        for plan in ("clean", "bitflip2")
    ]
    return ids


def _operands():
    rng = np.random.default_rng(20230616)
    return (
        rng.standard_normal((M, K)),
        rng.standard_normal((K, N)),
        rng.standard_normal((M, N)),
    )


def _plan(name: str, blocking: BlockingConfig, beta: float, threads: int):
    if name == "clean":
        return None
    if name == "checksum-scale":
        return InjectionPlan(
            schedule={"checksum": (1, 4), "scale": (0,)},
            model=BitFlip(bit=52),
            seed=11,
        )
    if threads:
        counts = site_invocation_counts_parallel(
            M, N, K, blocking, threads, beta=beta
        )
    else:
        counts = site_invocation_counts(M, N, K, blocking, beta=beta)
    model = BitFlip(bit=51) if name == "bitflip2" else StuckBit(bit=53)
    return plan_for_gemm(
        M, N, K, blocking, 2, model=model, seed=3, beta=beta, counts=counts
    )


def _jsonable(value):
    return json.loads(json.dumps(value, default=lambda o: o.item()))


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(case_id: str) -> dict:
    """Run one grid case and reduce its outcome to a JSON record."""
    driver, scheme, beta_tag, plan_name = case_id.split("/")
    beta = float(beta_tag[1:])
    traced = driver.endswith("-traced")
    driver = driver.removesuffix("-traced")
    a, b, c0 = _operands()
    dispatch = "tile" if driver == "serial-tile" else "auto"
    blocking = BlockingConfig.small(dispatch=dispatch)
    cfg = FTGemmConfig(
        blocking=blocking,
        checksum_scheme=scheme,
        verify_mode="eager" if driver == "serial-eager" else "final",
    )
    threads = int(driver[3:]) if driver.startswith("par") else 0
    plan = _plan(plan_name, blocking, beta, threads)
    injector = FaultInjector(plan) if plan is not None else None
    tracer = Tracer() if traced else None
    c = None if beta == 0.0 else c0.copy()
    kwargs = {}
    if driver == "serial-cached":
        kwargs["packed_b"] = encode_b(b, blocking)
    if threads:
        gemm = ParallelFTGemm(cfg, n_threads=threads, tracer=tracer)
    else:
        gemm = FTGemm(cfg, tracer=tracer)
    record: dict = {}
    try:
        result = gemm.gemm(
            a, b, c, alpha=1.25, beta=beta, injector=injector, **kwargs
        )
    except UncorrectableError as exc:
        record["raised"] = type(exc).__name__
    else:
        counters = dataclasses.asdict(result.counters)
        counters.pop("cache")
        record.update(
            c_sha256=hashlib.sha256(
                np.ascontiguousarray(result.c).tobytes()
            ).hexdigest(),
            counters=counters,
            verified=result.verified,
            last_mode=gemm.last_mode,
            reports=[
                [
                    r.round_index,
                    r.pattern_kind,
                    list(r.flagged_rows),
                    list(r.flagged_cols),
                    [[i, j, float(d).hex()] for i, j, d in r.corrected],
                    list(r.recomputed_rows),
                    list(r.recomputed_cols),
                    r.checksum_rederived,
                ]
                for r in result.reports
            ],
            recovery=(
                None
                if result.recovery is None
                else [
                    [x.strategy, x.pattern_kind, x.succeeded]
                    for x in result.recovery.rounds
                ]
            ),
        )
    if injector is not None:
        record["injections"] = [
            [
                r.site,
                r.invocation,
                [int(i) for i in r.index],
                float(r.old_value).hex(),
                float(r.new_value).hex(),
                r.n_elements,
                r.detected,
                r.corrected,
                r.tid,
                r.persistent,
            ]
            for r in injector.canonical_records
        ]
    if tracer is not None:
        events = [
            [e.name, e.cat, e.ph, e.tid, e.args] for e in tracer.events
        ]
        names: dict[str, int] = {}
        for e in tracer.events:
            names[e.name] = names.get(e.name, 0) + 1
        record["trace"] = {"events_sha256": _digest(events), "names": names}
    return _jsonable(record)


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case_id", _case_ids())
def test_golden_parity(case_id):
    expected = _load()[case_id]
    assert run_case(case_id) == expected


def test_fixture_covers_the_grid():
    assert sorted(_load()) == sorted(_case_ids())


def test_grid_exercises_every_outcome():
    """The pins are only as strong as the behaviour they cover: the grid
    must include clean runs, corrected runs and batched injected runs."""
    records = _load()
    assert any(r.get("counters", {}).get("errors_corrected") for r in records.values())
    assert any(
        r.get("last_mode") == "batched" and r.get("injections")
        for r in records.values()
    )
    assert all(
        r["verified"] for key, r in records.items()
        if key.endswith("/clean") and "verified" in r
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_parity --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({cid: run_case(cid) for cid in _case_ids()}, indent=1,
                   sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(_case_ids())} cases to {FIXTURE}")
