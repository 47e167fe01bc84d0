"""Rules: tracer span pairing and NULL_TRACER-safe defaults.

The tracing layer (``obs/tracer.py``) is designed so instrumented code
costs nothing when tracing is off: call sites either enter spans as
context managers (``with tr.span(...)``), stamp retroactive spans with
``tr.complete(..., t0_us=...)``, or hold a ``tracer=None`` default and
guard before touching it. Two rules keep call sites honest:

- ``span-pairing`` — a ``.span(...)`` call used as a bare expression
  statement creates a span that is never entered (no begin event, no
  end event — it silently drops the measurement); and a ``.complete()``
  on a tracer missing its ``t0_us=`` keyword records a zero-length span
  at "now" instead of the interval it meant to capture.
- ``tracer-guard`` — a function taking ``tracer=None``/``tr=None`` that
  then calls methods on it must first guard (``if tracer is None`` /
  truthiness / rebinding to ``NULL_TRACER``): the None default is the
  documented "tracing off" mode and must not crash.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, SourceModule, rule, walk

_TRACER_PARAMS = {"tracer", "tr"}


def _is_tracer_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TRACER_PARAMS or node.id.endswith("tracer")
    if isinstance(node, ast.Attribute):
        return node.attr in _TRACER_PARAMS or node.attr.endswith("tracer")
    return False


@rule(
    "span-pairing",
    "tracer spans must be entered (with tr.span(...)) or completed "
    "retroactively with an explicit t0_us=",
)
def check_span_pairing(module: SourceModule) -> Iterator[Finding]:
    for node in walk(module.tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "span"
                and _is_tracer_receiver(func.value)
            ):
                yield module.finding(
                    "span-pairing",
                    node,
                    "span(...) created but never entered — use "
                    "'with tr.span(...)' so begin/end events pair up",
                )
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "complete"
                and _is_tracer_receiver(func.value)
            ):
                if not any(kw.arg == "t0_us" for kw in node.keywords):
                    yield module.finding(
                        "span-pairing",
                        node,
                        "tracer.complete(...) without t0_us= records a "
                        "zero-length span instead of the measured interval",
                    )


def _tracer_param_names(fn: ast.FunctionDef) -> set[str]:
    """Parameters named tracer/tr whose default is None."""
    names: set[str] = set()
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = args.defaults
    for arg, default in zip(positional[len(positional) - len(defaults):],
                            defaults):
        if arg.arg in _TRACER_PARAMS and _is_none(default):
            names.add(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and arg.arg in _TRACER_PARAMS and _is_none(default):
            names.add(arg.arg)
    return names


def _is_none(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_guard(fn: ast.FunctionDef, name: str) -> bool:
    for node in walk(fn):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, ast.Name) and op.id == name for op in operands
            ) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                return True
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name):
            if node.test.id == name:
                return True
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        if isinstance(node, ast.BoolOp):
            # `(tracer or NULL_TRACER).event(...)` style rebinding
            if any(
                isinstance(v, ast.Name) and v.id == name for v in node.values
            ):
                return True
        if isinstance(node, ast.IfExp):
            test = node.test
            if isinstance(test, ast.Name) and test.id == name:
                return True
    return False


@rule(
    "tracer-guard",
    "functions taking tracer=None must guard before calling tracer "
    "methods (NULL_TRACER-safe defaults)",
)
def check_tracer_guard(module: SourceModule) -> Iterator[Finding]:
    for fn in walk(module.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _tracer_param_names(fn)
        for name in sorted(params):
            uses = [
                node
                for node in walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ]
            if uses and not _has_guard(fn, name):
                yield module.finding(
                    "tracer-guard",
                    uses[0],
                    f"{fn.name}() calls methods on {name} but its default "
                    f"is None and nothing guards or rebinds it "
                    "(crashes when tracing is off)",
                )
