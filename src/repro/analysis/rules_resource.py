"""Rule: resource-lifecycle — shm segment pairing and arena-view escape.

The process tier's transport discipline (PR 7): the **parent** creates
every ``SharedMemory`` segment through its registry and is the only side
that ever ``unlink``s; both sides must ``close()`` each mapping they
open on *every* path — including the exception paths — or the mapping
leaks until process exit (and on the parent accumulates against the
registry's sweep). The GEMM workspace has the sibling discipline: arena
views (``workspace.a_view()``/``b_view()``) alias scratch memory that is
rewritten on the next block, so a view must die inside the block that
made it — storing one on ``self`` or returning it hands the caller a
buffer that will be silently overwritten.

Three checks, all dataflow on the CFG:

- **close-on-all-paths**: for each segment acquisition (``SharedMemory
  (...)``, ``registry.create(...)``, or the child-side ``view, seg =
  attach(...)``) bound to a local name, no path from the acquisition to
  the normal *or* raise exit may avoid ``<name>.close()`` — unless the
  segment escapes (returned, stored, aliased: ownership moved, the
  holder closes). The exception-path half is the one PR 7's tests never
  exercised: an injector raise between ``create`` and ``close`` leaks
  the mapping.
- **child-unlink-ban**: a module that imports ``attach`` (the child side
  of the shm protocol) must never call ``.unlink()`` — unlink is the
  parent registry's job, and a child unlinking early races every other
  attacher.
- **arena-view-escape**: an ``a_view``/``b_view`` result may be filled,
  passed and read locally, but must not be stored on an attribute/
  container or returned (the defining workspace module itself is
  exempt).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.cfg import CFG, Node
from repro.analysis.engine import Finding, SourceModule, rule, walk

_VIEW_METHODS = {"a_view", "b_view"}


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _call_attr(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _receiver_mentions(call: ast.Call, word: str) -> bool:
    node = call.func
    while isinstance(node, ast.Attribute):
        if word in node.attr.lower():
            return True
        node = node.value
    return isinstance(node, ast.Name) and word in node.id.lower()


def _acquisitions(node: Node) -> list[tuple[str, ast.Call]]:
    """(bound name, call) pairs for segment acquisitions in this node."""
    stmt = node.stmt
    if not isinstance(stmt, ast.Assign) or not isinstance(
        stmt.value, ast.Call
    ):
        return []
    call = stmt.value
    name = _call_attr(call)
    target = stmt.targets[0] if len(stmt.targets) == 1 else None
    if name == "SharedMemory" or (
        name == "create" and _receiver_mentions(call, "registry")
    ):
        if isinstance(target, ast.Name):
            return [(target.id, call)]
    if name == "attach" and isinstance(target, ast.Tuple):
        # child-side protocol: ``view, segment = attach(descriptor)``
        elts = target.elts
        if len(elts) == 2 and isinstance(elts[1], ast.Name):
            return [(elts[1].id, call)]
    return []


def _closes(node: Node, name: str) -> bool:
    for sub in node.walk():
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "close"
        ):
            receiver = sub.func.value
            if isinstance(receiver, ast.Name) and receiver.id == name:
                return True
    return False


def _none_guard(node: Node, name: str) -> bool:
    """An ``if <name> is not None:`` branch — the idiomatic close guard
    for conditionally-acquired segments. Path-insensitively the false
    side looks like a leak, but it only runs when nothing was acquired;
    crediting the guard branch keeps the check honest without full path
    sensitivity."""
    if node.kind != "branch":
        return False
    test = node.stmt.test
    return isinstance(test, ast.Compare) and _mentions(test, name)


def _closes_anything(node: Node) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "close"
        for sub in node.walk()
    )


def _leaks_via(cfg: CFG, acq: int, closes: set[int], target: int) -> bool:
    """A close-free path from the acquisition to ``target`` — starting
    from the acquisition's *normal* successors: the acquisition's own
    raise means nothing was acquired, which is not a leak. Exception
    edges out of a sibling ``.close()`` are skipped too: a close that
    raises is already a failed cleanup, and charging the *other*
    segment with the resulting leak double-reports one failure."""
    stack = [
        edge.dst for edge in cfg.nodes[acq].succs if edge.kind != "exc"
    ]
    seen = set(stack)
    while stack:
        n = stack.pop()
        if n == target:
            return True
        if n in closes:
            continue
        skip_exc = _closes_anything(cfg.nodes[n])
        for edge in cfg.nodes[n].succs:
            if skip_exc and edge.kind == "exc":
                continue
            if edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return False


def _segment_escapes(cfg: CFG, name: str) -> bool:
    """Ownership moved: the segment is returned/yielded, stored into an
    attribute or container, aliased, or passed *directly* (as a bare
    name) to another call — ``seg.buf`` feeding an ndarray does not
    transfer the mapping's ownership and does not count."""
    for node in cfg.stmt_nodes():
        for sub in node.walk():
            if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
                if sub.value is not None and _mentions(sub.value, name):
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
                ):
                    return True
            elif isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Attribute) and (
                    sub.func.attr == "close"
                ):
                    continue
                for arg in list(sub.args) + [
                    kw.value for kw in sub.keywords
                ]:
                    if isinstance(arg, ast.Name) and arg.id == name:
                        return True
    return False


def _mentions(node: ast.AST, name: str) -> bool:
    """Direct mention of the bare name: ``seg`` and ``(view, seg)``
    count, ``seg.name``/``seg.buf`` (attribute reads that copy a field
    out, not the mapping) do not."""
    attribute_values = {
        id(sub.value) for sub in walk(node)
        if isinstance(sub, ast.Attribute)
    }
    return any(
        isinstance(sub, ast.Name)
        and sub.id == name
        and id(sub) not in attribute_values
        for sub in walk(node)
    )


@rule(
    "resource-lifecycle",
    "SharedMemory mappings close on every path (exceptions included), "
    "children never unlink, and Workspace arena views stay inside their "
    "block",
)
def check_resource_lifecycle(module: SourceModule) -> Iterator[Finding]:
    yield from _check_segments(module)
    yield from _check_child_unlink(module)
    yield from _check_arena_views(module)


def _check_segments(module: SourceModule) -> Iterator[Finding]:
    for fn in _functions(module.tree):
        cfg = module.cfg(fn)
        for node in cfg.stmt_nodes():
            for name, call in _acquisitions(node):
                if _segment_escapes(cfg, name):
                    continue
                closes = {
                    other.index
                    for other in cfg.stmt_nodes()
                    if _closes(other, name) or _none_guard(other, name)
                }
                if _leaks_via(cfg, node.index, closes, cfg.exit):
                    yield module.finding(
                        "resource-lifecycle",
                        call,
                        f"{fn.name}(): shm segment {name!r} can reach a "
                        "normal return without .close() — the mapping "
                        "leaks",
                    )
                elif _leaks_via(cfg, node.index, closes, cfg.raise_exit):
                    yield module.finding(
                        "resource-lifecycle",
                        call,
                        f"{fn.name}(): shm segment {name!r} leaks when an "
                        "exception unwinds past it — close it in a "
                        "finally",
                    )


def _check_child_unlink(module: SourceModule) -> Iterator[Finding]:
    imports_attach = any(
        isinstance(node, ast.ImportFrom)
        and any(alias.name == "attach" for alias in node.names)
        for node in walk(module.tree)
    )
    if not imports_attach:
        return
    for node in walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unlink"
        ):
            yield module.finding(
                "resource-lifecycle",
                node,
                "child-side module calls .unlink() — unlinking is the "
                "parent registry's job; a child unlink races every "
                "other attacher",
            )


def _check_arena_views(module: SourceModule) -> Iterator[Finding]:
    defines_workspace = any(
        isinstance(node, ast.ClassDef) and node.name == "Workspace"
        for node in walk(module.tree)
    )
    if defines_workspace:
        return
    for fn in _functions(module.tree):
        cfg = module.cfg(fn)
        views: set[str] = set()
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr in _VIEW_METHODS
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                views.add(stmt.targets[0].id)
        if not views:
            continue
        for node in cfg.stmt_nodes():
            for sub in node.walk():
                if isinstance(sub, (ast.Return, ast.Yield)):
                    for name in sorted(views):
                        if sub.value is not None and isinstance(
                            sub.value, ast.Name
                        ) and sub.value.id == name:
                            yield module.finding(
                                "resource-lifecycle",
                                node.line,
                                f"{fn.name}(): arena view {name!r} "
                                "returned — it aliases Workspace scratch "
                                "that the next block overwrites",
                            )
                elif isinstance(sub, ast.Assign):
                    stores = any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in sub.targets
                    )
                    for name in sorted(views):
                        if stores and isinstance(
                            sub.value, ast.Name
                        ) and sub.value.id == name:
                            yield module.finding(
                                "resource-lifecycle",
                                node.line,
                                f"{fn.name}(): arena view {name!r} stored "
                                "beyond its block — it aliases Workspace "
                                "scratch that the next block overwrites",
                            )
