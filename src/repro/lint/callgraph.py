"""Interprocedural call-graph layer for bwlint (the v2 substrate).

Two related structures live here, both pure may-analyses over one
module's AST:

* **Method summaries** — :func:`collect_kernel_uses` resolves every
  ``self.kernel(...)`` launch reachable from an entry method through any
  depth of ``self.helper()`` calls.  Each non-entry helper gets a
  :class:`MethodSummary` (its transitive kernel launches with the
  traffic factor — ``traffic_scale`` × helper-internal bounded-loop
  trips — already folded in), computed bottom-up over the helper call
  graph.  Recursion is *widened*: a cycle keeps the reachable use set
  but drops every factor to an unknown :class:`Sym`, so volumes degrade
  to "known expression, unknown magnitude" instead of being silently
  dropped the way the old depth-limited inliner did.

* **The entry-method message graph** — :func:`build_call_graph` maps
  every literal ``send``/``broadcast`` dispatch site to its candidate
  chare entry methods (arity-matched against the module's entry
  signatures, name-matched as a fallback) and splits them into *driver*
  dispatches (from non-chare code: the phase roots) and *entry* edges
  (message chains between entries).  Dispatches with a non-literal
  entry name are counted, not guessed — the phase analyzer suppresses
  its whole rule family when any exist.

:mod:`repro.lint.phases` builds the phase timeline on top of the
message graph; :mod:`repro.lint.traffic` and the declaration checker
consume the summaries.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

from repro.lint.dataflow import Loop, Sym, iter_loops, loop_nests, sym_mul
from repro.lint.nodeindex import NodeIndex
from repro.lint.static_checker import (_block_attrs, _class_helper_methods,
                                       _is_self_call, _is_self_expr,
                                       _KernelUse, _local_defs,
                                       _parse_entry_decorator)

__all__ = ["MethodSummary", "collect_kernel_uses",
           "entry_signatures", "Dispatch", "CallGraph", "build_call_graph"]

_ONE = Sym("1", 1.0)


def _loop_product(index: NodeIndex, base: Sym, loops: list[Loop],
                  node: ast.Call | None) -> Sym:
    """Multiply in the known trip counts of loops enclosing ``node``."""
    if node is None:
        return base
    for loop in iter_loops(loops):
        if loop.trip is not None and loop.trip.known() \
                and index.contains(loop.node, node):
            base = sym_mul(base, loop.trip)
    return base


# ---------------------------------------------------------------------------
# method summaries (kernel launches through helper chains)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _MethodBody:
    """One method's direct kernel launches and outgoing helper calls."""

    uses: list[_KernelUse]
    #: (call site node, helper name) for each self.<helper>() call
    calls: list[tuple[ast.Call, str]]
    loops: list[Loop]
    scope: dict
    defs: dict[str, ast.expr]


@dataclasses.dataclass
class MethodSummary:
    """Kernel launches transitively reachable from one helper method.

    Every use carries a pre-folded ``factor`` (``traffic_scale`` ×
    bounded-loop trips internal to the helper chain) and an ``anchor``
    inside the summarized method's body, re-anchored at each expansion.
    ``widened`` marks recursion: the use *set* is still complete over
    the cycle, but factors are unknown.
    """

    name: str
    uses: list[_KernelUse]
    widened: bool = False


def _scan_method(index: NodeIndex, method: ast.FunctionDef,
                 helpers: _t.Mapping[str, ast.FunctionDef],
                 ev: _t.Any, attr_scope: _t.Mapping | None) -> _MethodBody:
    """Extract direct kernel launches + helper call sites from one body."""
    local_defs = _local_defs(index, method)
    scope: dict = dict(attr_scope or {})
    if ev is not None:
        for arg in method.args.args[1:] + method.args.kwonlyargs:
            val = ev.annotation_value(arg.annotation)
            if val is not None:
                scope.setdefault(arg.arg, val)
    loops = (loop_nests(method, ev.trip_evaluator(scope, local_defs))
             if ev is not None else [])
    uses: list[_KernelUse] = []
    calls: list[tuple[ast.Call, str]] = []
    for node in index.calls(method):
        if _is_self_call(node, "kernel", local_defs):
            reads_expr: ast.expr | None = None
            writes_expr: ast.expr | None = None
            # kernel(flops, reads, writes, ...) — positional or keyword
            if len(node.args) >= 2:
                reads_expr = node.args[1]
            if len(node.args) >= 3:
                writes_expr = node.args[2]
            for kw in node.keywords:
                if kw.arg == "reads":
                    reads_expr = kw.value
                elif kw.arg == "writes":
                    writes_expr = kw.value
            reads, r_unknown = _block_attrs(reads_expr, local_defs)
            writes, w_unknown = _block_attrs(writes_expr, local_defs)
            uses.append(_KernelUse(line=node.lineno, reads=reads,
                                   writes=writes,
                                   unknown=r_unknown or w_unknown,
                                   call=node, anchor=node))
            continue
        fn = node.func
        # self-recursive calls stay in: _helper_summary must see the
        # back-edge to widen the cycle's factors to unknown
        if isinstance(fn, ast.Attribute) and fn.attr in helpers \
                and _is_self_expr(fn.value, local_defs):
            calls.append((node, fn.attr))
    return _MethodBody(uses=uses, calls=calls, loops=loops,
                       scope=scope, defs=local_defs)


def _launch_factor(index: NodeIndex, use: _KernelUse, body: _MethodBody,
                   ev: _t.Any) -> Sym:
    """traffic_scale × enclosing known trips for one direct launch."""
    factor = _ONE
    if ev is not None and use.call is not None:
        for kw in use.call.keywords:
            if kw.arg == "traffic_scale":
                got = ev.eval(kw.value, body.scope, body.defs)
                if isinstance(got, Sym):
                    factor = got
    return _loop_product(index, factor, body.loops, use.call)


def _helper_summary(index: NodeIndex, name: str,
                    helpers: _t.Mapping[str, ast.FunctionDef],
                    ev: _t.Any, attr_scope: _t.Mapping | None,
                    cache: dict[str, MethodSummary],
                    visiting: frozenset[str]) -> MethodSummary:
    cached = cache.get(name)
    if cached is not None:
        return cached
    body = _scan_method(index, helpers[name], helpers, ev, attr_scope)
    uses = [dataclasses.replace(u, factor=_launch_factor(index, u, body, ev))
            for u in body.uses]
    widened = False
    for call, callee in body.calls:
        if callee in visiting or callee == name:
            widened = True  # recursion back-edge: widen, don't descend
            continue
        sub = _helper_summary(index, callee, helpers, ev, attr_scope, cache,
                              visiting | {name})
        widened |= sub.widened
        site = _loop_product(index, _ONE, body.loops, call)
        uses.extend(
            dataclasses.replace(u, anchor=call,
                                factor=sym_mul(u.factor or _ONE, site))
            for u in sub.uses)
    if widened:
        uses = [dataclasses.replace(u, factor=Sym("recursion", None))
                for u in uses]
        # a cycle member's summary depends on where the walk entered the
        # cycle; recompute per query instead of caching a truncated view
        return MethodSummary(name=name, uses=uses, widened=True)
    summary = MethodSummary(name=name, uses=uses, widened=False)
    cache[name] = summary
    return summary


def collect_kernel_uses(index: NodeIndex, func: ast.FunctionDef,
                        cls: ast.ClassDef, aliases: frozenset[str],
                        ev: _t.Any = None,
                        attr_scope: _t.Mapping | None = None
                        ) -> list[_KernelUse]:
    """Kernel calls reachable from ``func``, direct or through helpers.

    Direct launches keep ``factor=None`` — the traffic analyzer
    evaluates their ``traffic_scale`` in the entry's own scope (which
    carries send-wired parameter values summaries cannot see).
    Helper-derived launches arrive with the helper-context factor folded
    in and their ``anchor`` re-pointed at the entry-body call site, so
    entry-level loop containment still applies on top.  ``index`` is the
    module's :class:`~repro.lint.nodeindex.NodeIndex`; ``func`` and
    ``cls`` are nodes of its tree.

    ``ev`` is the traffic evaluator (duck-typed: ``eval`` /
    ``annotation_value`` / ``trip_evaluator``); without it factors stay
    1 and only the read/write/unknown sets are meaningful — all the
    declaration checker needs.
    """
    helpers = _class_helper_methods(cls, aliases)
    body = _scan_method(index, func, helpers, ev, attr_scope)
    uses = list(body.uses)
    cache: dict[str, MethodSummary] = {}
    for call, callee in body.calls:
        summary = _helper_summary(index, callee, helpers, ev, attr_scope,
                                  cache, frozenset({func.name}))
        uses.extend(dataclasses.replace(u, anchor=call)
                    for u in summary.uses)
    return uses


# ---------------------------------------------------------------------------
# entry-method message graph
# ---------------------------------------------------------------------------


def entry_signatures(chares: _t.Sequence[ast.ClassDef],
                     aliases: frozenset[str]
                     ) -> dict[tuple[str, int], list[tuple[str, list[str]]]]:
    """(entry name, arity) -> [(class, param names)] over all chares."""
    sigs: dict[tuple[str, int], list[tuple[str, list[str]]]] = {}
    for cls in chares:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if not any(_parse_entry_decorator(d, aliases)
                       for d in method.decorator_list):
                continue
            params = [a.arg for a in method.args.args[1:]]
            sigs.setdefault((method.name, len(params)), []).append(
                (cls.name, params))
    return sigs


@dataclasses.dataclass
class Dispatch:
    """One ``send``/``broadcast`` call site with a literal entry name."""

    entry: str
    line: int
    call: ast.Call
    #: enclosing class name (None for a module-level function)
    caller_cls: str | None
    caller_func: str
    #: the function whose body contains the call (loop containment)
    func: ast.FunctionDef
    #: candidate target chare classes, sorted
    targets: tuple[str, ...]

    def keys(self) -> list[tuple[str, str]]:
        return [(cls, self.entry) for cls in self.targets]


@dataclasses.dataclass
class CallGraph:
    """Message-dispatch graph over one module's chare entry methods."""

    #: (class, entry name) -> the decorated method node
    entries: dict[tuple[str, str], ast.FunctionDef]
    #: dispatches from non-chare code, in source order — the phase roots
    driver_dispatches: list[Dispatch]
    #: message edges out of each entry (incl. via its helper methods)
    entry_dispatches: dict[tuple[str, str], list[Dispatch]]
    #: send/broadcast calls whose entry name is not a literal string
    unknown_sends: int


def _dispatches_in(index: NodeIndex, func: ast.FunctionDef,
                   cls_name: str | None,
                   sigs: _t.Mapping[tuple[str, int],
                                    list[tuple[str, list[str]]]]
                   ) -> tuple[list[Dispatch], int]:
    out: list[Dispatch] = []
    unknown = 0
    for node in index.calls(func):
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "broadcast")):
            continue
        name: str | None = None
        name_idx = 0
        for i, arg in enumerate(node.args[:2]):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name, name_idx = arg.value, i
                break
        if name is None:
            unknown += 1
            continue
        arity = len(node.args) - name_idx - 1
        matches = sigs.get((name, arity), [])
        if matches:
            targets = tuple(sorted({cls for cls, _ in matches}))
        else:  # arity mismatch (e.g. **kwargs): fall back to name match
            targets = tuple(sorted({cls for (n, _a), lst in sigs.items()
                                    if n == name for cls, _ in lst}))
        out.append(Dispatch(entry=name, line=node.lineno, call=node,
                            caller_cls=cls_name, caller_func=func.name,
                            func=func, targets=targets))
    return out, unknown


def _helper_calls(index: NodeIndex, method: ast.FunctionDef,
                  helpers: _t.Mapping[str, ast.FunctionDef]) -> list[str]:
    """Names of the ``self.<helper>()`` calls in ``method``, walk order."""
    local_defs = _local_defs(index, method)
    return [node.func.attr for node in index.calls(method)
            if isinstance(node.func, ast.Attribute)
            and node.func.attr in helpers
            and _is_self_expr(node.func.value, local_defs)]


def _helper_closure(index: NodeIndex, method: ast.FunctionDef,
                    helpers: _t.Mapping[str, ast.FunctionDef],
                    edges: _t.Mapping[str, list[str]]) -> list[str]:
    """Helper methods transitively callable from ``method``, sorted."""
    queue = _helper_calls(index, method, helpers)
    seen: set[str] = set()
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        queue.extend(edges.get(name, []))
    return sorted(seen)


def build_call_graph(index: NodeIndex, aliases: frozenset[str]) -> CallGraph:
    """Build the message graph for one parsed module."""
    chares = index.chares
    chare_names = {c.name for c in chares}
    sigs = entry_signatures(chares, aliases)

    entries: dict[tuple[str, str], ast.FunctionDef] = {}
    entry_dispatches: dict[tuple[str, str], list[Dispatch]] = {}
    driver_dispatches: list[Dispatch] = []
    unknown = 0

    for cls in chares:
        helpers = _class_helper_methods(cls, aliases)
        helper_disp: dict[str, list[Dispatch]] = {}
        helper_edges: dict[str, list[str]] = {}
        for name, method in sorted(helpers.items()):
            d, u = _dispatches_in(index, method, cls.name, sigs)
            helper_disp[name] = d
            unknown += u
            helper_edges[name] = [
                callee for callee in _helper_calls(index, method, helpers)
                if callee != name]
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if not any(_parse_entry_decorator(d, aliases)
                       for d in method.decorator_list):
                continue
            fn = _t.cast(ast.FunctionDef, method)
            key = (cls.name, method.name)
            entries[key] = fn
            d, u = _dispatches_in(index, fn, cls.name, sigs)
            unknown += u
            for helper in _helper_closure(index, fn, helpers, helper_edges):
                d.extend(helper_disp[helper])
            entry_dispatches[key] = d

    for node in index.tree.body:
        if isinstance(node, ast.ClassDef) and node.name not in chare_names:
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    d, u = _dispatches_in(index,
                                          _t.cast(ast.FunctionDef, sub),
                                          node.name, sigs)
                    driver_dispatches.extend(d)
                    unknown += u
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            d, u = _dispatches_in(index, _t.cast(ast.FunctionDef, node),
                                  None, sigs)
            driver_dispatches.extend(d)
            unknown += u

    driver_dispatches.sort(key=lambda d: d.line)
    return CallGraph(entries=entries, driver_dispatches=driver_dispatches,
                     entry_dispatches=entry_dispatches,
                     unknown_sends=unknown)
