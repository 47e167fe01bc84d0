"""Rule: barrier pairing and naming in the parallel worker generators.

The threaded driver's workers are generators in which every bare
``yield`` *is* an OpenMP-style barrier (``parallel/team.py`` resumes all
generators in lockstep). Fail-stop recovery reconstructs what a dead
worker had finished purely from the barrier index it last reached
(``_recover_from_deaths``'s ``1 + 2 * t`` arithmetic), so three textual
invariants carry real correctness weight:

- every barrier ``yield`` carries a ``# barrier:`` comment naming the
  phase it separates (the recovery logic is reasoned about in terms of
  these names);
- every barrier ``yield`` is followed by a ``<counters>.barriers += 1``
  bookkeeping update — except a terminal yield that ends the generator —
  so the perf model's barrier accounting matches the execution;
- when a module defines ``_recover_from_deaths``, its ``worker``
  generator must match the barrier map the recovery arithmetic assumes:
  exactly one prologue barrier outside the block loops and exactly two
  (pack, macro) inside the doubly-nested block loop, and the
  ``1 + 2 * t`` pack-barrier formula must appear in the module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, SourceModule, rule, walk


def _is_bare_yield(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Yield)
        and stmt.value.value is None
    )


def _is_barrier_count(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.AugAssign)
        and isinstance(stmt.op, ast.Add)
        and isinstance(stmt.target, ast.Attribute)
        and stmt.target.attr == "barriers"
    )


def _worker_generators(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "worker" or node.name.endswith("_worker"):
            yield node


def _yields_with_context(fn: ast.FunctionDef):
    """Yield (stmt, next_stmt, loop_depth, is_terminal) for each bare
    yield of ``fn``, ignoring nested function definitions."""

    def visit(stmts, depth, terminal_block):
        for i, stmt in enumerate(stmts):
            last = i == len(stmts) - 1
            if _is_bare_yield(stmt):
                nxt = stmts[i + 1] if not last else None
                yield (stmt, nxt, depth, terminal_block and last)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                yield from visit(stmt.body, depth + 1, False)
                yield from visit(stmt.orelse, depth + 1, False)
            elif isinstance(stmt, ast.If):
                yield from visit(stmt.body, depth, False)
                yield from visit(stmt.orelse, depth, False)
            elif isinstance(stmt, ast.With):
                yield from visit(stmt.body, depth, False)
            elif isinstance(stmt, ast.Try):
                yield from visit(stmt.body, depth, False)
                yield from visit(stmt.orelse, depth, False)
                yield from visit(stmt.finalbody, depth, False)
                for handler in stmt.handlers:
                    yield from visit(handler.body, depth, False)

    yield from visit(fn.body, 0, True)


@rule(
    "barrier-pairing",
    "barrier yields in parallel worker generators must be named "
    "(# barrier: comment), counted (barriers += 1) and match the "
    "barrier map fail-stop recovery assumes",
)
def check_barrier_pairing(module: SourceModule) -> Iterator[Finding]:
    has_recovery = any(
        isinstance(node, ast.FunctionDef) and node.name == "_recover_from_deaths"
        for node in walk(module.tree)
    )
    for fn in _worker_generators(module.tree):
        yields = list(_yields_with_context(fn))
        if not yields:
            continue
        depth_zero = depth_deep = 0
        for stmt, nxt, depth, terminal in yields:
            line = module.snippet(stmt.lineno)
            if "# barrier" not in line:
                yield module.finding(
                    "barrier-pairing",
                    stmt,
                    f"in {fn.name}(): bare yield is a team barrier but "
                    "carries no '# barrier:' comment naming the phase",
                )
            if not terminal and (nxt is None or not _is_barrier_count(nxt)):
                yield module.finding(
                    "barrier-pairing",
                    stmt,
                    f"in {fn.name}(): barrier yield is not followed by a "
                    "'.barriers += 1' counter update",
                )
            if depth == 0:
                depth_zero += 1
            elif depth >= 2:
                depth_deep += 1
        if has_recovery and fn.name == "worker":
            if depth_zero != 1 or depth_deep != 2:
                yield module.finding(
                    "barrier-pairing",
                    fn,
                    f"worker() barrier map mismatch: recovery assumes 1 "
                    f"prologue barrier + 2 per-block barriers (pack, "
                    f"macro), found {depth_zero} at loop depth 0 and "
                    f"{depth_deep} at depth >= 2",
                )
    if has_recovery and "1 + 2 * t" not in module.text:
        for node in walk(module.tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "_recover_from_deaths"
            ):
                yield module.finding(
                    "barrier-pairing",
                    node,
                    "_recover_from_deaths() lost the '1 + 2 * t' "
                    "pack-barrier formula the barrier map encodes",
                )
