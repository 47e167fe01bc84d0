"""Rule: rng-draw-parity — fault factories keep the two tiers in lockstep.

The replay contract between the thread tier and the process tier
(:func:`repro.serve.workload.make_injector_factory` and its picklable
twin ``make_fault_spec_factory``) is *draw-for-draw parity*: both
factories seed the same per-request generator and must consume it with
the **same method sequence**, so a workload replayed on either tier
strikes the same requests with the same fault models. One extra or
conditional draw silently desynchronises every draw after it — the
campaign still "works", it just stops testing what the flag says it
tests. That is exactly the class of bug a test suite cannot see (both
streams are individually valid), so the analyzer owns it.

Two checks, per module that defines both factories:

- **tier-conditional draws**: inside a factory, an RNG draw (a method
  call on a receiver whose reaching definitions include ``make_rng(...)``
  / ``default_rng(...)``) must not sit under a branch whose test reads
  *tier-only* state — a parameter one factory receives and the other
  does not (today ``shape``/``attempt``). Only branches the generator
  *dominates* count: a tier-only early-return **before** the generator
  exists (``if attempt > 0: return None``) cannot desynchronise a
  stream that has consumed nothing, and is the sanctioned way to gate
  per-tier behaviour.
- **draw-sequence parity**: the source-ordered sequence of draw method
  names must be identical across the two factories (``random, random,
  random, integers, integers`` today). A divergence is reported on the
  second factory with both sequences spelled out.

Conditional draws keyed on *shared* state (``kernel``,
``service_config``) are fine — both tiers evaluate the same condition
to the same value.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import reaching_defs
from repro.analysis.engine import Finding, SourceModule, rule, walk

_FACTORY_MAKERS = ("make_injector_factory", "make_fault_spec_factory")

#: Generator constructors — a name assigned from one is an RNG receiver
_RNG_MAKERS = {"make_rng", "default_rng", "RandomState"}

#: numpy.random.Generator draw methods that consume stream state
_DRAW_METHODS = {
    "random",
    "integers",
    "choice",
    "uniform",
    "normal",
    "standard_normal",
    "shuffle",
    "permutation",
    "bytes",
}


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _inner_factories(
    tree: ast.AST,
) -> dict[str, ast.FunctionDef]:
    """maker name -> the inner closure it returns (the ``factory`` def)."""
    out: dict[str, ast.FunctionDef] = {}
    for node in walk(tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name in _FACTORY_MAKERS
        ):
            for stmt in walk(node):
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt is not node
                    and stmt.name != node.name
                ):
                    out[node.name] = stmt
                    break
    return out


def _params(fn: ast.FunctionDef) -> set[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _rng_defs(cfg: CFG) -> tuple[set[str], set[int]]:
    """(names bound to a generator, node indices of those bindings)."""
    names: set[str] = set()
    nodes: set[int] = set()
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and _call_name(stmt.value) in _RNG_MAKERS
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            names.add(stmt.targets[0].id)
            nodes.add(node.index)
    return names, nodes


def _draws_in(node_walk, rng_names: set[str]) -> list[ast.Call]:
    draws: list[ast.Call] = []
    for sub in node_walk:
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _DRAW_METHODS
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id in rng_names
        ):
            draws.append(sub)
    return draws


def _draw_sequence(fn: ast.FunctionDef, rng_names: set[str]) -> list[str]:
    """Draw method names in source order — the stream signature both
    factories must share."""
    draws = _draws_in(walk(fn), rng_names)
    draws.sort(key=lambda c: (c.lineno, c.col_offset))
    return [c.func.attr for c in draws]  # type: ignore[union-attr]


def _reads(test: ast.expr, names: set[str]) -> set[str]:
    return {
        sub.id
        for sub in walk(test)
        if isinstance(sub, ast.Name) and sub.id in names
    }


def _tier_conditional_draws(
    module: SourceModule,
    fn: ast.FunctionDef,
    tier_only: set[str],
) -> Iterator[Finding]:
    cfg = module.cfg(fn)
    rng_names, rng_nodes = _rng_defs(cfg)
    if not rng_names:
        return
    defs = reaching_defs(cfg)
    doms = cfg.dominators()
    deps = cfg.control_deps()
    for node in cfg.stmt_nodes():
        node_defs = defs.get(node.index, {})
        live = {
            name
            for name in rng_names
            if node_defs.get(name, set()) & rng_nodes
        }
        if not live:
            continue
        for draw in _draws_in(node.walk(), live):
            for branch_idx, _kind in deps.get(node.index, []):
                # only branches evaluated after the generator exists can
                # skew the stream; pre-seed gates are parity-safe
                if not (doms.get(branch_idx, set()) & rng_nodes):
                    continue
                branch = cfg.nodes[branch_idx]
                test = getattr(branch.stmt, "test", None)
                if test is None and branch.kind == "loop":
                    test = branch.stmt.iter
                if test is None:
                    continue
                culprits = _reads(test, tier_only)
                if culprits:
                    which = ", ".join(sorted(culprits))
                    yield module.finding(
                        "rng-draw-parity",
                        draw,
                        f"{fn.name}(): .{draw.func.attr}() draw is "
                        f"conditional on tier-only state ({which}) — "
                        "the twin factory cannot mirror it, so the "
                        "streams desynchronise; draw unconditionally "
                        "and discard, or gate before creating the rng",
                    )
                    break


@rule(
    "rng-draw-parity",
    "injector and fault-spec factories must consume their per-request "
    "generator draw-for-draw: no draws conditioned on tier-only state, "
    "identical draw-method sequences",
)
def check_rng_draw_parity(module: SourceModule) -> Iterator[Finding]:
    factories = _inner_factories(module.tree)
    if not factories:
        return

    params = {name: _params(fn) for name, fn in factories.items()}
    if len(factories) == 2:
        inj = params["make_injector_factory"]
        spec = params["make_fault_spec_factory"]
        tier_only = inj ^ spec
    else:
        tier_only = set()

    sequences: dict[str, list[str]] = {}
    for maker in _FACTORY_MAKERS:
        fn = factories.get(maker)
        if fn is None:
            continue
        cfg = module.cfg(fn)
        rng_names, _ = _rng_defs(cfg)
        sequences[maker] = _draw_sequence(fn, rng_names)
        if tier_only:
            yield from _tier_conditional_draws(module, fn, tier_only)

    if len(sequences) == 2:
        seq_inj = sequences["make_injector_factory"]
        seq_spec = sequences["make_fault_spec_factory"]
        if seq_inj != seq_spec:
            yield module.finding(
                "rng-draw-parity",
                factories["make_fault_spec_factory"],
                "factory draw sequences diverge: injector tier draws "
                f"[{', '.join(seq_inj)}] but fault-spec tier draws "
                f"[{', '.join(seq_spec)}] — replay parity is broken "
                "after the first divergent draw",
            )
