"""Dataflow analyses over :class:`~repro.analysis.cfg.CFG` graphs.

Three small lattices, each exactly as strong as the rules need:

- **reaching definitions** (:func:`reaching_defs`) — per node, which
  assignments of each local name may still be live. The rng rule uses it
  to tie a ``.random()`` draw back to the ``make_rng(...)`` that created
  its receiver; the resource rule to tie a ``.close()`` back to the
  ``SharedMemory(...)`` it releases.
- **may-reach events** (:func:`may_pass_through`) — per node, whether
  *some* path from the entry passes an event node before arriving. The
  funnel rule phrases "every path out of batch execution completes" as
  its contrapositive: a normal exit whose may-set is empty has a path
  that never completed.
- **event-free reachability** (:func:`reaches_without`) — can control
  reach ``target`` from ``src`` while avoiding every node in
  ``blocked``? This is postdominance restricted to one sink: the ledger
  rule asks "from this C/panel write, can the function's *normal* exit
  be reached without passing the checksum update?" (exception exits stay
  legal — a raise is not a silent unverified write).

Plus the escape helpers the resource rules share: a name "escapes" its
function when it is returned, yielded, stored on an attribute/container,
aliased to another name, or handed to a call — after which local
lifetime reasoning is off.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

from repro.analysis.cfg import CFG, Node
from repro.analysis.engine import walk

__all__ = [
    "assigned_names",
    "call_of",
    "escapes",
    "may_pass_through",
    "reaches_without",
    "reaching_defs",
]


def assigned_names(node: Node) -> set[str]:
    """Plain local names this node (re)binds."""
    out: set[str] = set()
    for sub in node.walk():
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            out.add(sub.name)
    stmt = node.stmt
    if node.kind == "with" and stmt is not None:
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                out.add(item.optional_vars.id)
    if node.kind == "handler" and stmt is not None and stmt.name:
        out.add(stmt.name)
    return out


def reaching_defs(cfg: CFG) -> dict[int, dict[str, set[int]]]:
    """For every node: name -> set of node indices whose binding of that
    name may reach it (classic gen/kill union fixpoint). A definition
    reaches the *successors* of its node, not the node itself."""
    reach = cfg.reachable()
    gen = {n: assigned_names(cfg.nodes[n]) for n in reach}
    ins: dict[int, dict[str, set[int]]] = {n: {} for n in reach}
    work = list(reach)
    while work:
        n = work.pop()
        out: dict[str, set[int]] = {
            name: set(defs) for name, defs in ins[n].items()
        }
        for name in gen[n]:
            out[name] = {n}
        for edge in cfg.succs(n):
            if edge.dst not in reach:
                continue
            target = ins[edge.dst]
            changed = False
            for name, defs in out.items():
                have = target.setdefault(name, set())
                if not defs <= have:
                    have |= defs
                    changed = True
            if changed and edge.dst not in work:
                work.append(edge.dst)
    return ins


def may_pass_through(
    cfg: CFG,
    is_event: Callable[[Node], bool],
    *,
    exc: bool = True,
) -> dict[int, bool]:
    """node -> True when some path entry..node passes an event node
    (the event counts once control *leaves* the event node)."""
    reach = cfg.reachable()
    state = {n: False for n in reach}
    # every reachable node is processed at least once: an event node must
    # seed its successors even when nothing upstream was marked yet
    work = list(reach)
    event = {n: is_event(cfg.nodes[n]) for n in reach}
    while work:
        n = work.pop()
        out = state[n] or event[n]
        for edge in cfg.succs(n, exc=exc):
            if edge.dst in reach and out and not state[edge.dst]:
                state[edge.dst] = True
                work.append(edge.dst)
    return state


def reaches_without(
    cfg: CFG,
    src: int,
    blocked: Iterable[int],
    target: int,
    *,
    exc: bool = True,
) -> bool:
    """Can ``target`` be reached from ``src`` without passing through a
    ``blocked`` node? (``src`` itself being blocked does not count —
    blocking stops paths *through*, not *from*.)"""
    stop = set(blocked) - {src}
    if src in stop:
        stop.discard(src)
    seen = {src}
    stack = [src]
    while stack:
        n = stack.pop()
        if n == target:
            return True
        if n in stop and n != src:
            continue
        for edge in cfg.succs(n, exc=exc):
            if edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return False


def call_of(node: ast.AST) -> ast.Call | None:
    """The single call expression a definition's RHS boils down to, if
    any: ``x = make_rng(...)`` -> that Call."""
    if isinstance(node, ast.Assign) or isinstance(node, ast.AnnAssign):
        value = node.value
        if isinstance(value, ast.Call):
            return value
    return None


def escapes(cfg: CFG, name: str, *, ignore_calls: bool = False) -> bool:
    """Does ``name`` escape the function — returned, yielded, stored
    into an attribute/subscript/container, aliased to another binding,
    or (unless ``ignore_calls``) passed to a call? Receiver position
    (``name.close()``) does not count as a call escape."""
    for node in cfg.stmt_nodes():
        for sub in node.walk():
            if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = sub.value
                if value is not None and _mentions(value, name):
                    return True
            elif isinstance(sub, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in sub.targets
                ) and _mentions(sub.value, name):
                    return True
                if (
                    isinstance(sub.value, ast.Name)
                    and sub.value.id == name
                    and any(isinstance(t, ast.Name) for t in sub.targets)
                ):
                    return True
                if isinstance(sub.value, (ast.Tuple, ast.List, ast.Dict)):
                    if _mentions(sub.value, name):
                        return True
            elif isinstance(sub, ast.Call) and not ignore_calls:
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if _mentions(arg, name):
                        return True
    return False


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in walk(node)
    )
