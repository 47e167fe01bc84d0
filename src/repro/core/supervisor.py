"""The escalation supervisor: diagnose *why* verification keeps failing.

The plain :class:`~repro.core.verification.Verifier` implements the paper's
bounded loop — correct unambiguous errors in place, recompute ambiguous
lines, give up after ``max_recompute_attempts``. That budget is calibrated
for *transient* faults, where one recompute produces clean data. A
persistent fault (a stuck bit in a packed buffer) breaks the calibration:
every recompute flows through the same poisoned path, the same residual
signature comes back, and the verifier burns its budget without converging.

:class:`EscalationSupervisor` wraps the verifier with a diagnosis and an
escalation ladder, in increasing order of cost:

1. **abft_correct / targeted_recompute / checksum_rederive** — the inner
   verifier's own strategies, absorbed into the report;
1b. **sticky_audit** — a *clean* verdict reached while sticky faults were
   still live is distrusted: repair recompute flows through the stuck
   substrate, and the correlated errors replayed onto recomputed lines can
   form sign-alternating rectangles that cancel in every row and column
   sum — invisible to the checksums that blessed the result. The audit
   quarantines the faults, recomputes every line a repair round touched
   through the injector-free repack path, and re-verifies on a rebuilt
   ledger;
2. **repack_recompute** — the verifier gave up and the recurring signature
   says a region (not a value) is bad: quarantine the injector's sticky
   faults, gather the flagged rows/columns of A/B into *fresh* storage,
   recompute them through the packed driver, and rebuild the whole checksum
   ledger from first principles;
3. **dmr_recompute** — last resort: compute C twice independently from the
   original operands, compare the copies element-wise, and adopt the
   DMR-verified result.

Every action lands in a structured :class:`RecoveryReport` (surfaced through
``FTGemmResult.recovery`` and the CLI), so a campaign can tell *which*
strategy saved each run. Fail-stop recovery (``thread_recovery`` rounds) is
driven by :class:`~repro.core.parallel.ParallelFTGemm` and recorded here too.

On the clean path the supervisor adds one dataclass allocation and a
constant-work loop over a single clean report — the ≤ 2 % overhead budget
of the robustness acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.results import VerificationReport
from repro.core.verification import (
    ChecksumLedger,
    Verifier,
    copy_ledger_into,
    ledger_from_state,
)
from repro.simcpu.counters import Counters
from repro.util.errors import UncorrectableError

#: escalation ladder, cheapest first
STRATEGIES = (
    "abft_correct",
    "checksum_rederive",
    "targeted_recompute",
    "sticky_audit",
    "thread_recovery",
    "repack_recompute",
    "dmr_recompute",
)

_ESCALATED = ("thread_recovery", "repack_recompute", "dmr_recompute")


@dataclass
class RecoveryRound:
    """One recovery action: which strategy ran and whether it ended clean."""

    index: int
    strategy: str
    pattern_kind: str
    succeeded: bool
    detail: str = ""


@dataclass
class RecoveryReport:
    """Structured audit trail of everything beyond a clean verification."""

    rounds: list[RecoveryRound] = field(default_factory=list)
    #: ``(site, flat_index)`` of every quarantined sticky fault
    quarantined: tuple[tuple[str, int], ...] = ()
    #: the supervisor's conclusion about the failure class
    diagnosis: str = ""
    #: ``(tid, barrier)`` of every fail-stop death recovered from
    thread_deaths: tuple[tuple[int, int], ...] = ()
    #: ``(row_start, n_rows)`` ranges re-executed by survivors
    recovered_rows: tuple[tuple[int, int], ...] = ()
    #: columns recomputed because a dead thread's shared-B̃ chunk went stale
    recovered_cols: tuple[int, ...] = ()
    #: correlation id of the request this recovery belongs to (mirrors
    #: :attr:`repro.core.results.FTGemmResult.request_id`; None outside the
    #: serving layer)
    request_id: str | None = None

    @property
    def attempts(self) -> int:
        return len(self.rounds)

    @property
    def succeeded_strategy(self) -> str | None:
        """The strategy of the round that ended clean (None if none did)."""
        for round_ in reversed(self.rounds):
            if round_.succeeded:
                return round_.strategy
        return None

    @property
    def escalated(self) -> bool:
        """True when recovery went past the plain verifier's strategies."""
        return any(r.strategy in _ESCALATED for r in self.rounds)

    @property
    def succeeded(self) -> bool:
        return self.succeeded_strategy is not None

    def summary(self) -> str:
        chain = " -> ".join(r.strategy for r in self.rounds) or "none"
        status = self.succeeded_strategy or "FAILED"
        parts = [f"recovery: {chain} (winner: {status})"]
        if self.diagnosis:
            parts.append(f"diagnosis: {self.diagnosis}")
        if self.quarantined:
            parts.append(f"quarantined: {len(self.quarantined)} site(s)")
        if self.thread_deaths:
            parts.append(
                "deaths: "
                + ", ".join(f"t{t}@b{b}" for t, b in self.thread_deaths)
            )
        return "; ".join(parts)


def _merge_counters(dst: Counters, src: Counters) -> None:
    """Accumulate a helper driver's counters into the shared record."""
    for f in dataclass_fields(Counters):
        value = getattr(src, f.name)
        if isinstance(value, int):
            setattr(dst, f.name, getattr(dst, f.name) + value)


class EscalationSupervisor:
    """Wraps the :class:`Verifier` with diagnosis, quarantine and escalation.

    Same constructor signature as the verifier plus ``injector`` — the
    supervisor consults it for sticky-fault quarantine. The inner verifier
    runs non-strict (the supervisor owns the raise decision).
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        alpha: float,
        beta: float,
        c0: np.ndarray | None,
        config: FTGemmConfig,
        counters: Counters,
        injector=None,
        tracer=None,
    ):
        self.a = a
        self.b = b
        self.alpha = alpha
        self.beta = beta
        self.c0 = c0
        self.config = config
        self.counters = counters
        self.injector = injector
        #: a live Tracer or None; every escalation rung becomes one
        #: ``recover.*`` span plus an "escalation" instant event
        self.tracer = tracer
        self.verifier = Verifier(
            a,
            b,
            alpha=alpha,
            beta=beta,
            c0=c0,
            config=config.with_(strict=False) if config.strict else config,
            counters=counters,
            injector=injector,
            tracer=tracer,
        )

    # -------------------------------------------------------------- main API
    def finalize(
        self,
        c: np.ndarray,
        ledger: ChecksumLedger,
        *,
        report: RecoveryReport | None = None,
    ) -> tuple[list[VerificationReport], bool, RecoveryReport]:
        """Verify ``c``; escalate past the verifier's budget if needed.

        Returns ``(verification_reports, verified, recovery_report)``;
        raises :class:`UncorrectableError` only when the whole ladder is
        exhausted and the config is strict.
        """
        report = report if report is not None else RecoveryReport()
        reports, verified = self.verifier.finalize(c, ledger)
        if verified and self._sticky_hazard(reports):
            # a clean verdict earned while sticky faults were live is not
            # trustworthy: repair recompute flows through the stuck
            # substrate, so the loop can converge to a self-consistent
            # poisoned state — data and the incrementally maintained
            # ledger agreeing with each other instead of with the true
            # product. Audit before believing it.
            self._absorb(reports, report, False)
            verified = self._sticky_audit(c, ledger, reports, report)
            if verified:
                return reports, True, report
        else:
            self._absorb(reports, report, verified)
            if verified:
                return reports, True, report

        report.diagnosis = self._diagnose(reports)

        # ---- escalation 1: quarantine + repack-recompute from original A/B
        quarantine = getattr(self.injector, "quarantine", None)
        if quarantine is not None:
            report.quarantined = report.quarantined + tuple(quarantine())
        rows, cols = self._suspect_lines(reports)
        tr = self.tracer
        if rows or cols:
            if tr is not None:
                tr.event("escalation", cat="recover",
                         args={"strategy": "repack_recompute",
                               "rows": len(rows), "cols": len(cols)})
                # strategy work only: the re-verification after the leg
                # traces itself as verify_round spans (sibling category)
                t0 = tr.now_us()
            acted = self._repack_recompute(c, ledger, rows, cols)
            if tr is not None:
                tr.complete("recover.repack_recompute", cat="recover",
                            t0_us=t0, args={"acted": acted,
                                            "rows": len(rows),
                                            "cols": len(cols)})
            if acted:
                more, verified = self.verifier.finalize(c, ledger)
                reports.extend(more)
            report.rounds.append(
                RecoveryRound(
                    len(report.rounds),
                    "repack_recompute",
                    reports[-1].pattern_kind if reports else "unknown",
                    verified,
                    detail=(
                        f"repacked+recomputed {len(rows)} row(s), "
                        f"{len(cols)} col(s); ledger rebuilt"
                        if acted
                        else "unavailable (beta != 0 without preserved C0)"
                    ),
                )
            )
            if verified:
                return reports, True, report

        # ---- escalation 2: DMR-verified recompute of the whole result
        if tr is not None:
            tr.event("escalation", cat="recover",
                     args={"strategy": "dmr_recompute"})
            t0 = tr.now_us()
        acted = self._dmr_recompute(c, ledger)
        if tr is not None:
            tr.complete("recover.dmr_recompute", cat="recover", t0_us=t0,
                        args={"acted": acted})
        if acted:
            more, verified = self.verifier.finalize(c, ledger)
            reports.extend(more)
        report.rounds.append(
            RecoveryRound(
                len(report.rounds),
                "dmr_recompute",
                reports[-1].pattern_kind if reports else "unknown",
                verified,
                detail=(
                    "full C recomputed twice from original operands and compared"
                    if acted
                    else "unavailable (beta != 0 without preserved C0)"
                ),
            )
        )
        if not verified and self.config.strict:
            raise UncorrectableError(
                "escalation exhausted: " + report.summary(),
                detected=self.counters.errors_detected,
                corrected=self.counters.errors_corrected,
            )
        return reports, verified, report

    # --------------------------------------------------------------- mapping
    def _absorb(
        self,
        reports: list[VerificationReport],
        report: RecoveryReport,
        verified: bool,
    ) -> None:
        """Translate the verifier's acted rounds into recovery rounds."""
        for vr in reports:
            if vr.clean or not vr.acted:
                continue
            if vr.checksum_rederived:
                strategy = "checksum_rederive"
            elif vr.recomputed_rows or vr.recomputed_cols:
                strategy = "targeted_recompute"
            else:
                strategy = "abft_correct"
            detail_parts = []
            if vr.corrected:
                detail_parts.append(f"{len(vr.corrected)} corrected in place")
            if vr.recomputed_rows or vr.recomputed_cols:
                detail_parts.append(
                    f"recomputed {len(vr.recomputed_rows)} row(s), "
                    f"{len(vr.recomputed_cols)} col(s)"
                )
            report.rounds.append(
                RecoveryRound(
                    len(report.rounds),
                    strategy,
                    vr.pattern_kind,
                    False,
                    detail="; ".join(detail_parts),
                )
            )
        if verified and report.rounds:
            report.rounds[-1].succeeded = True

    def _diagnose(self, reports: list[VerificationReport]) -> str:
        if getattr(self.injector, "has_persistent", False):
            return (
                "persistent-fault: sticky faults are live in the injector; "
                "recompute re-poisons itself until the region is quarantined"
            )
        signatures = [
            (r.pattern_kind, r.flagged_rows, r.flagged_cols)
            for r in reports
            if not r.clean
        ]
        if len(signatures) > len(set(signatures)):
            return (
                "persistent-fault: the same residual signature recurred "
                "across repair rounds — a region, not a value, is bad"
            )
        return (
            "uncorrectable-pattern: error density beyond the checksum "
            "scheme's localization capability"
        )

    def _suspect_lines(
        self, reports: list[VerificationReport]
    ) -> tuple[list[int], list[int]]:
        rows: set[int] = set()
        cols: set[int] = set()
        for vr in reports:
            rows.update(vr.flagged_rows)
            rows.update(vr.recomputed_rows)
            cols.update(vr.flagged_cols)
            cols.update(vr.recomputed_cols)
        return sorted(rows), sorted(cols)

    # ------------------------------------------------------------ strategies
    def _sticky_hazard(self, reports: list[VerificationReport]) -> bool:
        """True when a clean verdict may be a lie: the injector still holds
        live persistent faults and repair work happened, so the sticky
        reapplication had material to poison."""
        return bool(getattr(self.injector, "has_persistent", False)) and any(
            not vr.clean for vr in reports
        )

    def _sticky_audit(
        self,
        c: np.ndarray,
        ledger: ChecksumLedger,
        reports: list[VerificationReport],
        report: RecoveryReport,
    ) -> bool:
        """Confirm a suspect clean verdict. Re-verification alone cannot do
        it: sticky replay poisons the *same* replay positions on every line
        a repair recomputes, and such correlated errors can form rectangles
        with alternating signs that cancel exactly in every row and column
        sum — invisible to the checksums that just blessed them. Instead,
        quarantine the faults and recompute every line any repair round
        touched (the only places replay poisoning can live) through the
        injector-free repack path, then rebuild the ledger and re-verify."""
        quarantine = getattr(self.injector, "quarantine", None)
        quarantined_now = tuple(quarantine()) if quarantine is not None else ()
        report.quarantined = report.quarantined + quarantined_now
        rows, cols = self._suspect_lines(reports)
        tr = self.tracer
        if tr is not None:
            tr.event("escalation", cat="recover",
                     args={"strategy": "sticky_audit",
                           "quarantined": len(quarantined_now),
                           "rows": len(rows), "cols": len(cols)})
            t0 = tr.now_us()
        acted = self._repack_recompute(c, ledger, rows, cols)
        if acted:
            more, verified = self.verifier.finalize(c, ledger)
        else:
            # beta != 0 without a preserved C0: nothing to recompute from —
            # the suspect verdict stays unconfirmed and the ladder goes on
            more, verified = [], False
        reports.extend(more)
        report.rounds.append(
            RecoveryRound(
                len(report.rounds),
                "sticky_audit",
                more[0].pattern_kind if more else "unknown",
                False,
                detail=(
                    f"clean verdict under {len(quarantined_now)} live sticky "
                    f"fault(s) distrusted: quarantined, {len(rows)} row(s) + "
                    f"{len(cols)} col(s) recomputed clean, ledger rebuilt"
                    if acted
                    else "unavailable (beta != 0 without preserved C0)"
                ),
            )
        )
        self._absorb(more, report, verified)
        if tr is not None:
            tr.complete("recover.sticky_audit", cat="recover", t0_us=t0,
                        args={"verified": verified, "acted": acted})
        return verified

    def _repack_recompute(
        self,
        c: np.ndarray,
        ledger: ChecksumLedger,
        rows: list[int],
        cols: list[int],
    ) -> bool:
        """Recompute suspect lines through the packed driver with *fresh*
        buffers (gathered copies of A/B — the quarantined storage is never
        read again), then rebuild the ledger from first principles. The
        driver runs the tile schedule: that is the one that repacks."""
        from repro.gemm.driver import BlockedGemm

        if self.beta != 0.0 and self.c0 is None:
            return False
        blocking = self.config.blocking.with_(dispatch="tile")
        n = self.b.shape[1]
        m = self.a.shape[0]
        if rows:
            idx = np.asarray(rows, dtype=np.intp)
            a_sub = np.ascontiguousarray(self.a[idx, :])
            c_sub = np.zeros((len(rows), n))
            driver = BlockedGemm(blocking)
            driver.gemm(a_sub, self.b, c_sub, alpha=self.alpha)
            _merge_counters(self.counters, driver.counters)
            if self.beta != 0.0:
                c_sub += self.beta * self.c0[idx, :]
            c[idx, :] = c_sub
        if cols:
            jdx = np.asarray(cols, dtype=np.intp)
            b_sub = np.ascontiguousarray(self.b[:, jdx])
            c_sub = np.zeros((m, len(cols)))
            driver = BlockedGemm(blocking)
            driver.gemm(self.a, b_sub, c_sub, alpha=self.alpha)
            _merge_counters(self.counters, driver.counters)
            if self.beta != 0.0:
                c_sub += self.beta * self.c0[:, jdx]
            c[:, jdx] = c_sub
        self.counters.blocks_recomputed += len(rows) + len(cols)
        self._rebuild_ledger(c, ledger)
        return True

    def _dmr_recompute(self, c: np.ndarray, ledger: ChecksumLedger) -> bool:
        """Compute C twice independently from the original operands, compare
        element-wise, adopt the agreed copy. A disagreement would mean the
        compute substrate itself is still faulting; the second copy (born
        after quarantine) wins, mirroring DMR writeback repair."""
        if self.beta != 0.0 and self.c0 is None:
            return False
        first = self.alpha * (self.a @ self.b)
        second = self.alpha * np.matmul(self.a, self.b)
        if self.beta != 0.0:
            first += self.beta * self.c0
            second += self.beta * self.c0
        mismatch = first != second
        repaired = int(np.count_nonzero(mismatch))
        if repaired:
            first[mismatch] = second[mismatch]
            self.counters.errors_detected += repaired
            self.counters.errors_corrected += repaired
        c[:] = first
        m, n = c.shape
        k = self.a.shape[1]
        self.counters.fma_flops += 4 * m * n * k
        self.counters.blocks_recomputed += m
        self._rebuild_ledger(c, ledger)
        return True

    def _rebuild_ledger(self, c: np.ndarray, ledger: ChecksumLedger) -> None:
        fresh = ledger_from_state(
            self.a,
            self.b,
            c,
            alpha=self.alpha,
            beta=self.beta,
            c0=self.c0,
            weighted=ledger.weighted,
            counters=self.counters,
        )
        copy_ledger_into(fresh, ledger)
