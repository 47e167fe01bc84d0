"""Rules: serve-layer lock discipline and exactly-once completion.

Three rules, all scoped to how this codebase actually uses locks:

- ``lock-discipline`` — for every class that owns a ``threading.Lock``/
  ``RLock``/``Condition`` attribute, any *mutable* instance attribute
  (one written outside ``__init__``) must be accessed consistently:
  either always under ``with self.<lock>`` or never. Mixed access is a
  torn-read/lost-update hazard. Unguarded read-modify-write
  (``self.x += 1``) in a lock-owning class is flagged unconditionally —
  the GIL does not make ``+=`` atomic across the read and the store.
  Guard state is computed on the CFG: each node's held set is the
  enclosing ``with self.<lock>`` stack *plus the method's inferred
  entry set* — a private method called only from under the lock (a
  fixpoint over intra-class call sites) analyzes as guarded, which is
  what retired the ``# analysis: caller-holds-lock`` annotations; the
  annotation still works for helpers whose callers live elsewhere.
- ``lock-blocking`` — no blocking call (queue get/put, ``future.result``,
  thread ``join``, ``sleep``, scheduler ``next_batch``/``take_compatible``,
  pipe ``send``/``recv`` on connection receivers, process
  ``join``/``kill`` on process receivers) while holding a lock; one slow
  caller would stall every thread behind the lock. ``Condition.wait`` on
  a condition tied to the held lock is the sanctioned exception (it
  releases while waiting). Call summaries extend the reach one level:
  a helper that blocks with no lock of its own is flagged at any call
  site that does hold one.
- ``complete-funnel`` — modules that *use* the response types (import
  them rather than define them) must route every terminal
  ``GemmResponse(...)`` through the service's ``_complete``/``complete``
  funnel and never call ``future.set`` directly; the funnel is where
  exactly-once delivery, latency stamping and bookkeeping live.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.engine import Finding, SourceModule, rule, walk

_LOCK_CTORS = {"Lock", "RLock"}

#: method names treated as blocking when called under a held lock; the
#: generic ones (pop/put/result/join) are only flagged on receivers whose
#: name marks them as a queue/future/thread — dict.pop and str.join are
#: everywhere and never block
_BLOCKING_ANY_RECEIVER = {"next_batch", "take_compatible", "wait_nonempty", "sleep"}
_BLOCKING_QUEUE_METHODS = {"pop", "put", "get"}
_BLOCKING_FUTURE_METHODS = {"result"}
_BLOCKING_THREAD_METHODS = {"join"}
#: pipe endpoints block on a full/empty OS buffer (and a dead peer can
#: block a send forever); process reaping waits on the OS — neither may
#: happen under a parent-side lock
_BLOCKING_PIPE_METHODS = {"send", "recv", "send_bytes", "recv_bytes", "poll"}
_BLOCKING_PROCESS_METHODS = {"join", "terminate", "kill"}

_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

_INIT_METHODS = {"__init__", "__post_init__", "__new__"}


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _receiver_text(node: ast.expr) -> str:
    """Best-effort dotted name of a call receiver, lowercased."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


@dataclass
class _ClassLocks:
    """Lock topology of one class: which self attrs are locks, and which
    condition attrs alias which underlying lock."""

    locks: set[str] = field(default_factory=set)
    #: condition attr -> lock attr it wraps (itself when built bare)
    conditions: dict[str, str] = field(default_factory=dict)

    @property
    def all_names(self) -> set[str]:
        return self.locks | set(self.conditions)

    def lock_of(self, attr: str) -> str | None:
        if attr in self.locks:
            return attr
        return self.conditions.get(attr)


def _class_locks(cls: ast.ClassDef) -> _ClassLocks:
    topo = _ClassLocks()
    for node in walk(cls):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        attr = _self_attr(node.targets[0])
        if attr is None or not isinstance(node.value, ast.Call):
            continue
        ctor = node.value.func
        if not isinstance(ctor, ast.Attribute):
            continue
        if not (
            isinstance(ctor.value, ast.Name)
            and ctor.value.id == "threading"
        ):
            continue
        if ctor.attr in _LOCK_CTORS:
            topo.locks.add(attr)
        elif ctor.attr == "Condition":
            if node.value.args:
                inner = _self_attr(node.value.args[0])
                topo.conditions[attr] = inner if inner is not None else attr
            else:
                # bare Condition owns a private RLock; the condition attr
                # is the lock name for guard purposes
                topo.conditions[attr] = attr
    return topo


@dataclass
class _Access:
    line: int
    guarded: bool
    kind: str  # "read" | "write" | "rmw"
    method: str


def _held_lock(withitem: ast.withitem, topo: _ClassLocks) -> str | None:
    attr = _self_attr(withitem.context_expr)
    if attr is None:
        return None
    return topo.lock_of(attr)


def _node_held(node, topo: _ClassLocks, entry: set[str]) -> list[str]:
    """Locks held at a CFG node: the method's inferred entry set plus the
    enclosing ``with self.<lock>`` items the node sits under (the CFG
    records those on ``Node.withs``)."""
    held = sorted(entry)
    for item in node.withs:
        lock = _held_lock(item, topo)
        if lock is not None:
            held.append(lock)
    return held


class _AccessCollector(ast.NodeVisitor):
    """Classify one CFG node's own statement fragments under a known
    held-lock set, recording every ``self.X`` access with its guard
    state, blocking calls made under a lock, and intra-class
    ``self.<method>(...)`` call sites (the edges the entry-set fixpoint
    runs over).

    The collector is driven per CFG node — ``held`` is *set* from the
    node's ``withs`` (plus the method's inferred entry set) rather than
    tracked by nesting, which is what lets held-lock sets flow through
    helper calls instead of resetting at every ``def``."""

    def __init__(self, topo: _ClassLocks, method: str,
                 siblings: set[str] | None = None):
        self.topo = topo
        self.method = method
        self.siblings = siblings or set()
        self.held: list[str] = []
        self.accesses: dict[str, list[_Access]] = {}
        #: blocking calls made while a lock is held: (node, lock, text)
        self.blocking: list[tuple[ast.Call, str, str]] = []
        #: blocking calls made with *no* lock held: (node, text) — the
        #: one-level summary the call-site check consumes
        self.blocking_unlocked: list[tuple[ast.Call, str]] = []
        #: intra-class call sites: (callee name, held set, call node)
        self.calls: list[tuple[str, frozenset, ast.Call]] = []

    # ------------------------------------------------------------- helpers
    def _record(self, attr: str, line: int, kind: str) -> None:
        self.accesses.setdefault(attr, []).append(
            _Access(line=line, guarded=bool(self.held), kind=kind,
                    method=self.method)
        )

    # -------------------------------------------------------------- visits
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested defs execute later, under whatever locks *their* caller
        # holds — analyzing them with the current guard state would lie
        # in both directions; record their accesses as unknown (skip)
        return

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            kind = "write" if self.held else "rmw"
            self._record(attr, node.lineno, kind)
        else:
            # self.X.Y += ... mutates X's referent
            chained = self._chain_root(node.target)
            if chained is not None:
                self._record(chained, node.lineno, "write")
        self.visit(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._visit_store_target(target)
        self.visit(node.value)

    def _visit_store_target(self, target: ast.expr) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record(attr, target.lineno, "write")
            return
        chained = self._chain_root(target)
        if chained is not None:
            self._record(chained, target.lineno, "write")
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._visit_store_target(elt)
            return
        self.visit(target)

    def _chain_root(self, node: ast.expr) -> str | None:
        """``self.X.anything...`` or ``self.X[...]`` as a store/mutation
        target -> ``"X"``."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            parent = node.value
            attr = _self_attr(parent)
            if attr is not None:
                return attr
            node = parent
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # self.X.mutator(...) is a write to X's referent
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            root = _self_attr(func.value)
            if root is not None and root not in self.topo.all_names:
                self._record(root, node.lineno, "write")
        # intra-class helper call — an edge for the entry-set fixpoint
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in self.siblings
        ):
            self.calls.append((func.attr, frozenset(self.held), node))
        # blocking call?
        if isinstance(func, (ast.Attribute, ast.Name)):
            name = _call_name(func)
            receiver = (
                _receiver_text(func.value)
                if isinstance(func, ast.Attribute)
                else ""
            )
            blocked = False
            if name in _BLOCKING_ANY_RECEIVER:
                blocked = True
            elif name in _BLOCKING_QUEUE_METHODS and "queue" in receiver:
                blocked = True
            elif name in _BLOCKING_FUTURE_METHODS and (
                "future" in receiver or "ticket" in receiver
            ):
                blocked = True
            elif name in _BLOCKING_THREAD_METHODS and "thread" in receiver:
                blocked = True
            elif name in _BLOCKING_PIPE_METHODS and (
                "conn" in receiver or "pipe" in receiver
            ):
                blocked = True
            elif name in _BLOCKING_PROCESS_METHODS and "proc" in receiver:
                blocked = True
            elif name == "wait" and self.held:
                # condition.wait is fine on the condition tied to the held
                # lock (it releases while waiting); waiting on anything
                # else — an Event, a barrier, a foreign condition — stalls
                # every thread behind the held lock
                attr = (
                    _self_attr(func.value)
                    if isinstance(func, ast.Attribute)
                    else None
                )
                lock = self.topo.lock_of(attr) if attr is not None else None
                if lock is None or lock not in self.held:
                    blocked = True
            if blocked:
                text = f"{receiver}.{name}" if receiver else name
                if self.held:
                    self.blocking.append((node, self.held[-1], text))
                else:
                    self.blocking_unlocked.append((node, text))
        # reads: self.X appearing anywhere in the call
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self._record(attr, node.lineno, "read")
        self.generic_visit(node)


def _caller_holds_lock(module: SourceModule, method: ast.FunctionDef) -> bool:
    """True when the method carries a ``# analysis: caller-holds-lock``
    annotation (on the ``def`` line or the line right above): its body is
    analyzed as if the class lock were held — the documented contract for
    private helpers only ever invoked under the lock."""
    return bool(
        {method.lineno, method.lineno - 1} & module.caller_holds_lock
    )


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt


def _classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _collect_method(
    module: SourceModule,
    topo: _ClassLocks,
    method: ast.FunctionDef,
    siblings: set[str],
    entry: set[str],
) -> _AccessCollector:
    """Run the collector over the method's CFG: each node's held set is
    the entry set plus the ``with self.<lock>`` items it sits under."""
    collector = _AccessCollector(topo, method.name, siblings)
    cfg = module.cfg(method)
    for node in cfg.stmt_nodes():
        collector.held = _node_held(node, topo, entry)
        for frag in node.own_nodes():
            collector.visit(frag)
    return collector


def _entry_sets(
    module: SourceModule,
    topo: _ClassLocks,
    methods: list[ast.FunctionDef],
    call_sites: dict[str, list[tuple[str, frozenset]]],
) -> dict[str, set[str]]:
    """Locks provably held on entry to each method — the one-level call
    summary that replaced the ``caller-holds-lock`` annotations.

    A *private* method called only from under ``with self.<lock>`` (at
    every intra-class call site, entry-held sets of the callers
    included) inherits that lock; the fixpoint starts called private
    methods at the full lock set and intersects downward over call
    sites, so mutual recursion converges. Public and dunder methods are
    entry points — callers outside the class hold nothing — and an
    explicit annotation still wins (for helpers whose only callers are
    in another class)."""
    annotated = {m.name for m in methods if _caller_holds_lock(module, m)}
    lock_names = set(topo.locks) | {
        lock
        for cond in topo.conditions
        if (lock := topo.lock_of(cond)) is not None
    }
    entry: dict[str, set[str]] = {}
    for m in methods:
        if m.name in annotated:
            entry[m.name] = {"<caller>"}
        elif _is_private(m.name) and m.name in call_sites:
            entry[m.name] = set(lock_names)
        else:
            entry[m.name] = set()
    changed = True
    while changed:
        changed = False
        for name, sites in call_sites.items():
            if name in annotated or not _is_private(name):
                continue
            new: set[str] | None = None
            for caller, held in sites:
                site = set(held) | entry.get(caller, set())
                new = site if new is None else new & site
            new = new if new is not None else set()
            if new != entry.get(name, set()):
                entry[name] = new
                changed = True
    return entry


def _class_analysis(
    module: SourceModule, cls: ast.ClassDef
) -> tuple[_ClassLocks, dict[str, _AccessCollector], dict[str, set[str]]]:
    """Two passes: collect intra-class call sites with lexical held sets,
    fixpoint the entry sets, then re-collect with entries applied."""
    topo = _class_locks(cls)
    methods = list(_methods(cls))
    siblings = {m.name for m in methods}
    call_sites: dict[str, list[tuple[str, frozenset]]] = {}
    for method in methods:
        probe = _collect_method(module, topo, method, siblings, set())
        for callee, held, _node in probe.calls:
            call_sites.setdefault(callee, []).append((method.name, held))
    entry = _entry_sets(module, topo, methods, call_sites)
    collectors = {
        method.name: _collect_method(
            module, topo, method, siblings, entry[method.name]
        )
        for method in methods
    }
    return topo, collectors, entry


@rule(
    "lock-discipline",
    "in lock-owning classes, mutable shared attributes must be accessed "
    "consistently under the lock; unguarded read-modify-write is never ok",
)
def check_lock_discipline(module: SourceModule) -> Iterator[Finding]:
    for cls in _classes(module.tree):
        topo = _class_locks(cls)
        if not topo.locks and not topo.conditions:
            continue
        _topo, collectors, _entry = _class_analysis(module, cls)
        accesses: dict[str, list[_Access]] = {}
        for collector in collectors.values():
            for attr, found in collector.accesses.items():
                accesses.setdefault(attr, []).extend(found)
        for attr in sorted(accesses):
            if attr in topo.all_names:
                continue
            found = accesses[attr]
            live = [a for a in found if a.method not in _INIT_METHODS]
            writes = [a for a in live if a.kind in ("write", "rmw")]
            if not writes:
                # immutable after __init__: reads race nothing
                continue
            for access in live:
                if access.kind == "rmw" and not access.guarded:
                    yield module.finding(
                        "lock-discipline",
                        access.line,
                        f"{cls.name}.{access.method}: unguarded "
                        f"read-modify-write of self.{attr} "
                        "(+= is not atomic)",
                    )
            guarded = [a for a in live if a.guarded]
            unguarded = [
                a for a in live if not a.guarded and a.kind != "rmw"
            ]
            if guarded and unguarded:
                for access in unguarded:
                    yield module.finding(
                        "lock-discipline",
                        access.line,
                        f"{cls.name}.{access.method}: self.{attr} "
                        f"{access.kind} without the lock, but other "
                        "accesses hold it (torn read / lost update)",
                    )


@rule(
    "lock-blocking",
    "no blocking call (queue get/put, future.result, thread join, sleep, "
    "scheduler waits, pipe send/recv, process join/kill) while holding "
    "a lock",
)
def check_lock_blocking(module: SourceModule) -> Iterator[Finding]:
    for cls in _classes(module.tree):
        topo = _class_locks(cls)
        if not topo.locks and not topo.conditions:
            continue
        _topo, collectors, entry = _class_analysis(module, cls)
        for name in sorted(collectors):
            collector = collectors[name]
            for node, lock, text in collector.blocking:
                where = (
                    f"self.{lock}"
                    if lock != "<caller>"
                    else "the caller-held lock"
                )
                yield module.finding(
                    "lock-blocking",
                    node,
                    f"{cls.name}.{name}: blocking call "
                    f"{text}(...) while holding {where}",
                )
            # one-level summary: calling a helper that blocks (with no
            # lock of its own) while we hold one stalls the lock just
            # the same — the blocking moved one frame down, not away
            for callee, held, call in collector.calls:
                locks = sorted(h for h in held if h != "<caller>")
                if not locks:
                    continue
                target = collectors.get(callee)
                if target is None or entry.get(callee):
                    # entry-held helpers report inside their own body
                    continue
                for _bnode, text in target.blocking_unlocked:
                    yield module.finding(
                        "lock-blocking",
                        call,
                        f"{cls.name}.{name}: self.{callee}() blocks "
                        f"({text}(...)) and is called here while "
                        f"holding self.{locks[-1]}",
                    )
                    break


@rule(
    "complete-funnel",
    "every terminal GemmResponse in serve/ must route through the "
    "_complete funnel; no direct future.set outside it",
)
def check_complete_funnel(module: SourceModule) -> Iterator[Finding]:
    imports_response = False
    defines_response = False
    imports_future = False
    for node in walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "GemmResponse":
                    imports_response = True
                if alias.name == "ResponseFuture":
                    imports_future = True
        elif isinstance(node, ast.ClassDef):
            if node.name == "GemmResponse":
                defines_response = True
            if node.name == "ResponseFuture":
                imports_future = False  # defining module is exempt
    if defines_response:
        return

    funneled: set[ast.Call] = set()
    if imports_response:
        for node in walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name not in ("complete", "_complete", "on_expired"):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if (
                    isinstance(arg, ast.Call)
                    and _call_name(arg.func) == "GemmResponse"
                ):
                    funneled.add(arg)
        for node in walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _call_name(node.func) == "GemmResponse"
                and node not in funneled
            ):
                yield module.finding(
                    "complete-funnel",
                    node,
                    "GemmResponse(...) constructed outside the "
                    "complete/_complete funnel — terminal paths must go "
                    "through the service's exactly-once completion hook",
                )

    if imports_future:
        enclosing: dict[ast.AST, str] = {}
        for fn in walk(module.tree):
            if isinstance(fn, ast.FunctionDef):
                for child in walk(fn):
                    enclosing.setdefault(child, fn.name)
        for node in walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "set"):
                continue
            receiver = _receiver_text(func.value)
            if "future" not in receiver:
                continue
            if enclosing.get(node) in ("_complete", "complete"):
                continue
            yield module.finding(
                "complete-funnel",
                node,
                f"direct {receiver}.set(...) outside _complete bypasses "
                "the exactly-once completion funnel",
            )
