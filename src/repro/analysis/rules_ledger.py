"""Rule: ledger-coverage — hot-buffer writes carry checksum evidence.

The paper's core discipline (FT-GEMM §3, inherited from FT-BLAS): every
mutation of the protected buffers — C, the packed panels, the FFT stage
data — is mirrored by checksum bookkeeping *fused into the same
traffic*. A write that the ledger never hears about is an undetectable
silent-corruption window; this rule makes the pairing a static property
across all four ProtectedKernels instead of a per-driver code-review
convention.

Scope (the taint/alias part is deliberately small):

- the FT driver methods that touch C or panels (``_scale_c``,
  ``_pack_a_block``/``_pack_b_block``/``_pack_b_cached``,
  ``_reuse_a_block``, ``_run_macro``, and the batched schedule's
  ``_contract``, whose one numpy contraction writes all of C) in any
  class that owns a checksum ledger;
- the BLAS/FFT entry points ``ft_gemv``, ``ft_trsm``, ``ft_fft``, where
  the *output buffer* is identified by alias: whatever name feeds
  ``BlasResult(value=...)`` / ``result.value = ...`` is the protected
  buffer, and subscript stores into it (or in-place ``_butterfly``
  stage applications) are the write events.

A write is **covered** when, on every path through it (with the
``if self.ft:`` / ``if not self.ft:`` off-branches pruned — unprotected
mode is out of scope by definition), checksum evidence appears either
before the write (verify-then-copy-out: ``y[:] = fresh`` after the
residual check) or after it (write-then-mirror: ``super()._pack_b_block``
followed by the ``ledger.row_pred`` update). Evidence is: a store whose
target involves the ledger, an assignment to a ``pred*``/``residual*``/
``r1``/``r2`` name, a comparison reading one, an
``injector.visit("checksum", ...)``, or a macro call carrying fused
``row_ref``/``col_ref`` keyword panels. A write is also self-covered
when its RHS is produced by a DMR producer (``_dmr_block_solve``,
``dmr_scale`` — duplication *is* the protection) as established by
reaching definitions, or when its own expression reads residual names
(the repair arithmetic).

The fused passes themselves live in one stage class
(:class:`repro.core.fused.FusedPasses`), so a driver's mirror is usually a
call into it: ``fused.update_b(...)`` on a receiver named ``fused`` /
``_fused`` counts as evidence when the method is one of the known passes.
That trust is checked, not assumed: in any ledger-owning class that
defines a pass of that name, the method must hold evidence itself (or
reach it through a ``self.<helper>(...)`` call) — a pass that stops
touching the ledger is reported at its definition.

Writes that are sanctioned by design but fail the local check (the
non-``last_p`` macro call, whose mirror lives at pack time) must carry a
``# analysis: ignore[ledger-coverage] -- why`` suppression — the rule is
registered with ``requires_justification=True``, so an unexplained
suppression is itself reported.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.cfg import CFG, Edge, Node
from repro.analysis.dataflow import reaching_defs
from repro.analysis.engine import Finding, SourceModule, rule, walk

#: FT driver methods whose super() call writes C or the packed panels
_DRIVER_WRITERS = {
    "_scale_c",
    "_pack_a_block",
    "_pack_b_block",
    "_pack_b_cached",
    "_reuse_a_block",
    "_run_macro",
    "_contract",
}

#: protected BLAS/FFT entry points checked by output-buffer alias
_BLAS_ENTRIES = {"ft_gemv", "ft_trsm", "ft_fft"}

#: calls whose result is verified by duplication — DMR is the evidence
_PRODUCERS = {"_dmr_block_solve", "dmr_scale"}

#: in-place stage application: writes its first argument
_INPLACE_WRITERS = {"_butterfly"}

_CHECKSUM_NAME = re.compile(r"^(pred|residual|r[0-9])")

#: the fused ABFT passes of repro.core.fused.FusedPasses: each mirrors
#: its pass into the ledger it owns, so calling one is evidence
_FUSED_PASSES = {
    "encode_a",
    "encode_c",
    "update_b",
    "update_b_cached",
    "update_a",
    "update_a_reused",
    "collect_refs",
}

#: receiver names under which the drivers hold their FusedPasses stage
_FUSED_RECEIVERS = {"fused", "_fused"}


def _name_root(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _dotted(node: ast.expr) -> str:
    parts: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_super_call(call: ast.Call) -> str | None:
    """``super()._pack_b_block(...)`` -> ``"_pack_b_block"``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    ):
        return func.attr
    return None


# --------------------------------------------------------------- ft pruning
def _pure_ft_test(test: ast.expr) -> str | None:
    """'pos' for a bare ``self.ft``/``ft`` test, 'neg' for ``not`` of
    one; None for anything compound (never prune those)."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _pure_ft_test(test.operand)
        if inner == "pos":
            return "neg"
        return None
    if isinstance(test, ast.Attribute) and test.attr == "ft":
        return "pos"
    if isinstance(test, ast.Name) and test.id == "ft":
        return "pos"
    return None


def _pruned(edge: Edge) -> bool:
    """Drop the FT-off side of a pure ft test: unprotected mode makes no
    checksum promises."""
    if edge.test is None:
        return False
    kind = _pure_ft_test(edge.test)
    if kind == "pos":
        return edge.kind == "false"
    if kind == "neg":
        return edge.kind == "true"
    return False


def _reaches(cfg: CFG, src: int, blocked: set[int], target: int) -> bool:
    """Event-free reachability on the ft-pruned graph."""
    seen = {src}
    stack = [src]
    while stack:
        n = stack.pop()
        if n == target:
            return True
        if n in blocked and n != src:
            continue
        for edge in cfg.nodes[n].succs:
            if _pruned(edge):
                continue
            if edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return False


# ----------------------------------------------------------------- evidence
def _is_evidence(node: Node) -> bool:
    for sub in node.walk():
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and "ledger" in _dotted(target):
                    # a *store into* the ledger; the bare alias
                    # ``ledger = self._ledger`` proves nothing
                    return True
                if isinstance(target, ast.Name) and _CHECKSUM_NAME.match(
                    target.id
                ):
                    return True
        elif isinstance(sub, ast.Compare):
            if any(
                isinstance(s, ast.Name) and _CHECKSUM_NAME.match(s.id)
                for s in walk(sub)
            ):
                return True
        elif isinstance(sub, ast.Call):
            if (
                _call_name(sub) == "visit"
                and sub.args
                and isinstance(sub.args[0], ast.Constant)
                and sub.args[0].value == "checksum"
            ):
                return True
            if any(kw.arg in ("row_ref", "col_ref") for kw in sub.keywords):
                return True
            if _is_fused_pass(sub):
                return True
    return False


def _is_fused_pass(call: ast.Call) -> bool:
    """``fused.update_b(...)`` / ``self._fused.update_a(...)``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _FUSED_PASSES
        and _dotted(func.value).rsplit(".", 1)[-1] in _FUSED_RECEIVERS
    )


def _self_calls(fn: ast.FunctionDef) -> set[str]:
    return {
        sub.func.attr
        for sub in walk(fn)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and isinstance(sub.func.value, ast.Name)
        and sub.func.value.id == "self"
    }


def _unmirrored_passes(
    module: SourceModule, cls: ast.ClassDef
) -> Iterator[ast.FunctionDef]:
    """Fused passes defined in ``cls`` that reach no ledger evidence,
    directly or through ``self.<method>(...)`` helpers of the class."""
    methods = {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
    }
    evident = {
        name
        for name, fn in methods.items()
        if any(_is_evidence(node) for node in module.cfg(fn).stmt_nodes())
    }
    changed = True
    while changed:
        changed = False
        for name, fn in methods.items():
            if name not in evident and _self_calls(fn) & evident:
                evident.add(name)
                changed = True
    for name in sorted(_FUSED_PASSES & set(methods) - evident):
        yield methods[name]


def _self_evident(node: Node, write: ast.AST,
                  defs: dict[str, set[int]], cfg: CFG) -> bool:
    """The write carries its own evidence: fused refs, repair arithmetic
    over residual names, or an RHS whose every reaching definition is a
    DMR-verified producer call."""
    if isinstance(write, ast.Call):
        if any(kw.arg in ("row_ref", "col_ref") for kw in write.keywords):
            return True
        if _call_name(write) in _PRODUCERS:
            return True
    value = getattr(write, "value", None)
    if value is not None:
        for sub in walk(value):
            if isinstance(sub, ast.Name) and _CHECKSUM_NAME.match(sub.id):
                return True
        root = value.id if isinstance(value, ast.Name) else None
        if root is not None:
            def_nodes = defs.get(root, set())
            if def_nodes and all(
                _producer_def(cfg.nodes[d]) for d in def_nodes
            ):
                return True
    return False


def _producer_def(node: Node) -> bool:
    stmt = node.stmt
    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
        return _call_name(stmt.value) in _PRODUCERS
    return False


# ------------------------------------------------------------------- writes
def _output_aliases(fn: ast.FunctionDef) -> set[str]:
    """The taint/alias seed: names bound to the protected output buffer
    (``BlasResult(value=x)`` / ``result.value = data``)."""
    aliases: set[str] = set()
    for sub in walk(fn):
        if isinstance(sub, ast.Call) and _call_name(sub) == "BlasResult":
            for kw in sub.keywords:
                if kw.arg == "value" and isinstance(kw.value, ast.Name):
                    aliases.add(kw.value.id)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "value"
                    and isinstance(sub.value, ast.Name)
                ):
                    aliases.add(sub.value.id)
    return aliases


def _writes_in(node: Node, aliases: set[str], driver: bool) -> list[ast.AST]:
    found: list[ast.AST] = []
    for sub in node.walk():
        if isinstance(sub, ast.Call):
            if driver:
                sup = _is_super_call(sub)
                if sup in _DRIVER_WRITERS:
                    found.append(sub)
                    continue
                if _call_name(sub) in _PRODUCERS:
                    found.append(sub)
                    continue
            name = _call_name(sub)
            if (
                name in _INPLACE_WRITERS
                and sub.args
                and isinstance(sub.args[0], ast.Name)
                and sub.args[0].id in aliases
            ):
                found.append(sub)
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and _name_root(target) in aliases
                ):
                    found.append(sub)
                    break
    return found


def _ledger_class(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr in ("_ledger", "ledger")
        for sub in walk(cls)
    )


@rule(
    "ledger-coverage",
    "writes to C, packed panels and FFT stage buffers in the FT drivers "
    "must pair with checksum-ledger evidence on every protected path",
    requires_justification=True,
)
def check_ledger_coverage(module: SourceModule) -> Iterator[Finding]:
    scopes: list[tuple[ast.FunctionDef, bool]] = []
    for node in walk(module.tree):
        if isinstance(node, ast.ClassDef) and _ledger_class(node):
            for fn in _unmirrored_passes(module, node):
                yield module.finding(
                    "ledger-coverage",
                    fn,
                    f"{fn.name}(): fused pass with no checksum-ledger "
                    "evidence — drivers count a call to it as their "
                    "mirror, so it must store into the ledger",
                )
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name in _DRIVER_WRITERS
                ):
                    scopes.append((stmt, True))
        elif (
            isinstance(node, ast.FunctionDef)
            and node.name in _BLAS_ENTRIES
        ):
            scopes.append((node, False))

    for fn, driver in scopes:
        cfg = module.cfg(fn)
        aliases = _output_aliases(fn)
        evidence = {
            node.index for node in cfg.stmt_nodes() if _is_evidence(node)
        }
        defs = reaching_defs(cfg)
        for node in cfg.stmt_nodes():
            for write in _writes_in(node, aliases, driver):
                if node.index in evidence:
                    continue
                if _self_evident(node, write, defs.get(node.index, {}), cfg):
                    continue
                before = _reaches(cfg, cfg.entry, evidence, node.index)
                after = _reaches(cfg, node.index, evidence, cfg.exit)
                if before and after:
                    yield module.finding(
                        "ledger-coverage",
                        write,
                        f"{fn.name}(): protected-buffer write has a path "
                        "with no checksum-ledger evidence before or "
                        "after it — mirror it into the ledger or "
                        "justify with `# analysis: "
                        "ignore[ledger-coverage] -- why`",
                    )
