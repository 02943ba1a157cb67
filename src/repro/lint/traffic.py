"""bwlint — static memory-traffic inference over ``@entry`` kernels.

The runtime schedules by *declared* dependences; nothing before this pass
could derive what a kernel actually streams.  This module is an abstract
interpreter over the same parse the declaration checker uses: it
resolves each chare's ``CkIOHandle`` sites (``declare_block`` /
``share_block`` calls, including handles obtained from another chare's
accessor methods), evaluates their byte sizes symbolically from the very
``config`` expressions the apps build (dataclass field defaults,
``@property`` bodies, ``repro.units`` constants, driver ``send``/
``broadcast`` argument wiring), and attributes per-site read/write byte
volumes to every kernel launch — multiplied by the trip counts
:func:`repro.lint.dataflow.loop_nests` can bound.

Two consumers sit on top:

* rules ``REP300``–``REP306`` (emitted through the normal findings
  pipeline from :func:`check_tree`, which
  :func:`repro.lint.static_checker.check_source` calls);
* :mod:`repro.lint.guidance`, which folds the per-site volumes of a
  whole source tree into a canonical placement-guidance file.

Everything here is a *may*-analysis over one module's AST — no imports
of the analyzed code, no execution.  Whenever a size, intent or handle
does not resolve, the affected rule is suppressed rather than guessed,
mirroring the REP1xx unknown-suppression philosophy; the suppression
gates are deliberately strict so the shipped tree stays finding-free.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

from repro.lint.dataflow import (Loop, Sym, iter_loops, loop_nests,
                                 sym_add as _sym_add, sym_bin as _sym_bin,
                                 sym_mul as _sym_mul)
from repro.lint.callgraph import _loop_product, collect_kernel_uses
from repro.lint.callgraph import entry_signatures as _entry_signatures
from repro.lint.findings import Finding
from repro.lint.nodeindex import NodeIndex
from repro.lint.rules import STATIC_RULES
from repro.lint.static_checker import (_EntryDecl, _is_self_call, _KernelUse,
                                       _module_entry_aliases,
                                       _parse_entry_decorator)
from repro.units import GiB

__all__ = ["AnalyzerCrash", "ModuleTraffic", "SiteTraffic", "analyze_tree",
           "check_tree", "DEFAULT_HBM_BYTES"]

#: paper machine: 16 GB MCDRAM.  REP304 is a *static* impossibility check,
#: so it uses the full-scale tier size, not any scaled-down CLI machine.
DEFAULT_HBM_BYTES = 16 * GiB


class AnalyzerCrash(Exception):
    """The traffic analyzer itself failed (not a lint verdict).

    Carries the offending file and function/class so the CLI can name
    them on exit code 2.
    """

    def __init__(self, file: str, function: str, cause: BaseException):
        self.file = file
        self.function = function
        self.cause = cause
        super().__init__(f"analyzer crash in {file}, function {function}: "
                         f"{type(cause).__name__}: {cause}")


def _finding(rule_id: str, message: str, file: str, line: int, *,
             chare: str = "", entry: str = "") -> Finding:
    spec = STATIC_RULES[rule_id]
    return Finding(rule=rule_id, severity=spec.severity, message=message,
                   file=file, line=line, chare=chare, entry=entry)


# ---------------------------------------------------------------------------
# symbolic values
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConfigRef:
    """A value statically known to be an instance of a config dataclass."""

    cls: str


@dataclasses.dataclass(frozen=True)
class ChareRef:
    """A value statically known to be a chare / node-group instance."""

    cls: str


Value = _t.Union[Sym, ConfigRef, ChareRef]
_ScopeKey = _t.Union[str, tuple]


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**"}


@dataclasses.dataclass
class _ConfigInfo:
    """Symbolically-evaluable surface of one dataclass config."""

    name: str
    fields: dict[str, ast.expr]
    props: dict[str, ast.expr]


def _is_dataclass_decorated(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else None)
        if name == "dataclass":
            return True
    return False


def _config_info(cls: ast.ClassDef) -> _ConfigInfo:
    fields: dict[str, ast.expr] = {}
    props: dict[str, ast.expr] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            fields[node.target.id] = node.value
        elif isinstance(node, ast.FunctionDef):
            is_prop = any(isinstance(d, ast.Name) and d.id == "property"
                          for d in node.decorator_list)
            if not is_prop:
                continue
            # only straight-line single-return properties are evaluable
            returns = [s for s in node.body if isinstance(s, ast.Return)]
            has_flow = any(isinstance(s, (ast.For, ast.While, ast.If))
                           for s in node.body)
            if len(returns) == 1 and not has_flow \
                    and returns[0].value is not None:
                props[node.name] = returns[0].value
    return _ConfigInfo(cls.name, fields, props)


def _assign_defs(index: NodeIndex,
                 func: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> dict[str, ast.expr]:
    """Local single-assignment map, including parallel tuple unpacking."""
    defs: dict[str, ast.expr] = {}
    for node in index.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                defs[target.id] = node.value
            elif isinstance(target, ast.Tuple) \
                    and isinstance(node.value, ast.Tuple) \
                    and len(target.elts) == len(node.value.elts):
                for t, v in zip(target.elts, node.value.elts):
                    if isinstance(t, ast.Name):
                        defs[t.id] = v
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            defs[node.target.id] = node.value
    return defs


class _Evaluator:
    """Restricted expression evaluator over one module's constants."""

    def __init__(self, index: NodeIndex):
        self.configs: dict[str, _ConfigInfo] = {}
        self.chare_names = {c.name for c in index.chares}
        self.module_env: dict[str, Sym] = {}
        self._field_cache: dict[tuple[str, str], Sym | None] = {}
        self._field_stack: set[tuple[str, str]] = set()
        self._collect(index.tree)

    def _collect(self, tree: ast.Module) -> None:
        import repro.units as _units

        for node in tree.body:
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "repro.units":
                for item in node.names:
                    raw = getattr(_units, item.name, None)
                    if isinstance(raw, (int, float)):
                        self.module_env[item.asname or item.name] = \
                            Sym(item.name, float(raw))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass_decorated(node):
                    self.configs[node.name] = _config_info(node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = self.eval(node.value, {})
                if isinstance(value, Sym) and value.known():
                    name = node.targets[0].id
                    self.module_env[name] = Sym(name, value.value)

    def annotation_value(self, ann: ast.expr | None) -> Value | None:
        name: str | None = None
        if isinstance(ann, ast.Name):
            name = ann.id
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value
        if name is None:
            return None
        if name in self.configs:
            return ConfigRef(name)
        if name in self.chare_names:
            return ChareRef(name)
        return None

    def config_attr(self, cls: str, attr: str) -> Sym | None:
        key = (cls, attr)
        if key in self._field_cache:
            return self._field_cache[key]
        if key in self._field_stack:
            return None
        info = self.configs.get(cls)
        if info is None:
            return None
        expr = info.fields.get(attr)
        if expr is None:
            expr = info.props.get(attr)
        if expr is None:
            self._field_cache[key] = None
            return None
        self._field_stack.add(key)
        try:
            inner = self.eval(expr, {"self": ConfigRef(cls)})
        finally:
            self._field_stack.discard(key)
        value = inner.value if isinstance(inner, Sym) else None
        result = Sym(f"{cls}.{attr}", value)
        self._field_cache[key] = result
        return result

    def eval(self, expr: ast.expr,
             scope: _t.Mapping[_ScopeKey, Value],
             defs: _t.Mapping[str, ast.expr] | None = None,
             _depth: int = 0) -> Value | None:
        """Evaluate to a :class:`Sym`/ref, or None when unresolvable."""
        if _depth > 12:
            return None
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) \
                    or not isinstance(expr.value, (int, float)):
                return None
            return Sym(repr(expr.value), float(expr.value))
        if isinstance(expr, ast.Name):
            hit = scope.get(expr.id)
            if hit is not None:
                return hit
            if defs and expr.id in defs:
                return self.eval(defs[expr.id], scope, defs, _depth + 1)
            return self.module_env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self" \
                    and ("self", expr.attr) in scope:
                return scope[("self", expr.attr)]
            base = self.eval(expr.value, scope, defs, _depth + 1)
            if isinstance(base, ConfigRef):
                return self.config_attr(base.cls, expr.attr)
            return None
        if isinstance(expr, ast.BinOp):
            op = _BINOPS.get(type(expr.op))
            if op is None:
                return None
            left = self.eval(expr.left, scope, defs, _depth + 1)
            right = self.eval(expr.right, scope, defs, _depth + 1)
            if isinstance(left, Sym) and isinstance(right, Sym):
                return _sym_bin(op, left, right)
            return None
        if isinstance(expr, ast.UnaryOp):
            inner = self.eval(expr.operand, scope, defs, _depth + 1)
            if not isinstance(inner, Sym):
                return None
            if isinstance(expr.op, ast.USub):
                value = -inner.value if inner.known() else None
                return Sym(f"-{inner.expr}", value)
            if isinstance(expr.op, ast.UAdd):
                return inner
            return None
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
            # the ``int(...) or 1`` floor idiom
            left = self.eval(expr.values[0], scope, defs, _depth + 1)
            if isinstance(left, Sym) and left.known():
                if left.value:
                    return left
                return self.eval(expr.values[1], scope, defs, _depth + 1)
            return None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            fn = expr.func.id
            args = [self.eval(a, scope, defs, _depth + 1)
                    for a in expr.args]
            if fn in {"int", "float", "round", "abs"} and len(args) == 1 \
                    and isinstance(args[0], Sym):
                inner = args[0]
                if not inner.known():
                    return inner
                raw = {"int": int, "float": float, "round": round,
                       "abs": abs}[fn](inner.value)
                return Sym(inner.expr, float(raw))
            if fn in {"min", "max"} and args \
                    and all(isinstance(a, Sym) and a.known() for a in args):
                syms = _t.cast("list[Sym]", args)
                picked = ({"min": min, "max": max}[fn])(
                    syms, key=lambda s: s.value)
                return picked
        return None

    def trip_evaluator(self, scope: _t.Mapping[_ScopeKey, Value],
                       defs: _t.Mapping[str, ast.expr]
                       ) -> _t.Callable[[ast.expr], Sym | None]:
        def evaluate(expr: ast.expr) -> Sym | None:
            out = self.eval(expr, scope, defs)
            return out if isinstance(out, Sym) else None
        return evaluate


# ---------------------------------------------------------------------------
# per-module structural analysis
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SiteTraffic:
    """One allocation site with its statically inferred traffic."""

    id: str
    cls: str
    name: str
    file: str
    line: int
    shared: bool
    size: Sym | None
    prefetch_declared: bool = False
    intents: set[str] = dataclasses.field(default_factory=set)
    intent_unknown: bool = False
    reads: Sym | None = None
    writes: Sym | None = None
    #: first-touch index across the module's prefetch entries (-1 = never)
    order: int = -1


@dataclasses.dataclass
class _EntryTraffic:
    """One entry method's declaration + kernel launches."""

    method: ast.FunctionDef
    decl: _EntryDecl
    uses: list[_KernelUse]
    scope: dict[_ScopeKey, Value]
    defs: dict[str, ast.expr]
    loops: list[Loop]


@dataclasses.dataclass
class _ChareTraffic:
    """Everything inferred about one chare class."""

    cls: ast.ClassDef
    tainted: bool = False
    sites: dict[str, SiteTraffic] = dataclasses.field(default_factory=dict)
    #: handle attr -> site id (fully resolved)
    bindings: dict[str, str] = dataclasses.field(default_factory=dict)
    #: handle attrs assigned something we could not resolve
    unresolved: set[str] = dataclasses.field(default_factory=set)
    #: non-handle self attrs (configs, foreign chares)
    attr_refs: dict[str, Value] = dataclasses.field(default_factory=dict)
    entries: list[_EntryTraffic] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ModuleTraffic:
    """Result of :func:`analyze_tree` over one module."""

    file: str
    findings: list[Finding]
    sites: dict[str, SiteTraffic]
    #: phase-ordered structure (:mod:`repro.lint.phases`); None only for
    #: results deserialized from pre-v2 layers that never carried one
    timeline: _t.Any = None


def _functions_with_class(tree: ast.Module) -> list[
        tuple[ast.ClassDef | None, ast.FunctionDef]]:
    out: list[tuple[ast.ClassDef | None, ast.FunctionDef]] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((node, _t.cast(ast.FunctionDef, sub)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((None, _t.cast(ast.FunctionDef, node)))
    return out


def _class_attr_refs(index: NodeIndex, cls: ast.ClassDef,
                     ev: _Evaluator) -> dict[str, Value]:
    """``self.X`` attributes holding configs or chare handles."""
    refs: dict[str, Value] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        param_scope: dict[_ScopeKey, Value] = {}
        for arg in method.args.args[1:] + method.args.kwonlyargs:
            val = ev.annotation_value(arg.annotation)
            if val is not None:
                param_scope[arg.arg] = val
        for node in index.walk(method):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            value = node.value
            if isinstance(value, ast.Name) and value.id in param_scope:
                refs[target.attr] = param_scope[value.id]
            elif isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and value.func.attr in ("create_array",
                                            "create_node_group") \
                    and value.args and isinstance(value.args[0], ast.Name) \
                    and value.args[0].id in ev.chare_names:
                refs[target.attr] = ChareRef(value.args[0].id)
    return refs


def _send_arg_map(index: NodeIndex, ev: _Evaluator,
                  class_refs: _t.Mapping[str, dict[str, Value]],
                  sigs: _t.Mapping[tuple[str, int],
                                   list[tuple[str, list[str]]]]
                  ) -> dict[tuple[str, str], list[Value | None]]:
    """(class, entry) -> per-parameter values wired by send/broadcast.

    Only unambiguous (entry name, arity) pairs are mapped; conflicting
    values from different call sites degrade to None per position.
    """
    out: dict[tuple[str, str], list[Value | None]] = {}
    for cls, func in _functions_with_class(index.tree):
        sends = [node for node in index.calls(func)
                 if isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("send", "broadcast")]
        if not sends:
            continue
        scope: dict[_ScopeKey, Value] = {}
        for arg in func.args.args + func.args.kwonlyargs:
            val = ev.annotation_value(arg.annotation)
            if val is not None:
                scope[arg.arg] = val
        if cls is not None:
            for attr, val in class_refs.get(cls.name, {}).items():
                scope[("self", attr)] = val
        defs = _assign_defs(index, func)
        for node in sends:
            name_idx = None
            for i, arg in enumerate(node.args[:2]):
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str):
                    name_idx = i
                    break
            if name_idx is None:
                continue
            entry_name = node.args[name_idx].value  # type: ignore[attr-defined]
            entry_args = node.args[name_idx + 1:]
            matches = sigs.get((entry_name, len(entry_args)), [])
            if len(matches) != 1:
                continue
            target_cls, _params = matches[0]
            values = [ev.eval(a, scope, defs) for a in entry_args]
            key = (target_cls, entry_name)
            if key not in out:
                out[key] = values
            else:
                merged = out[key]
                for i, v in enumerate(values):
                    if merged[i] != v:
                        merged[i] = None
    return out


def _shared_site_name(key_expr: ast.expr,
                      param_map: _t.Mapping[str, ast.expr] | None = None
                      ) -> str | None:
    """First component of a ``share_block`` key, as a literal string."""
    if isinstance(key_expr, ast.Constant) \
            and isinstance(key_expr.value, str):
        return key_expr.value
    if isinstance(key_expr, ast.Tuple) and key_expr.elts:
        first = key_expr.elts[0]
        if isinstance(first, ast.Name) and param_map \
                and first.id in param_map:
            first = param_map[first.id]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def _resolve_accessor(owner: str, cls: ast.ClassDef, method_name: str,
                      call: ast.Call) -> str | tuple[str, str, str] | None:
    """Resolve ``foreign.method(args)`` to a site id.

    Returns a final ``"Cls.name"`` id for ``return self.shared[key]``
    accessors, a deferred ``("attr", Cls, attr)`` for ``return self.X``
    accessors, or None.
    """
    target: ast.FunctionDef | None = None
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == method_name:
            target = node
            break
    if target is None:
        return None
    returns = [s for s in target.body if isinstance(s, ast.Return)]
    if len(returns) != 1 or returns[0].value is None:
        return None
    value = returns[0].value
    if isinstance(value, ast.Attribute) \
            and isinstance(value.value, ast.Name) \
            and value.value.id == "self":
        return ("attr", owner, value.attr)
    if isinstance(value, ast.Subscript) \
            and isinstance(value.value, ast.Attribute) \
            and value.value.attr == "shared" \
            and isinstance(value.value.value, ast.Name) \
            and value.value.value.id == "self":
        # map accessor params to the call's positional arguments so a
        # Name in the key tuple resolves to the caller's literal
        params = [a.arg for a in target.args.args[1:]]
        param_map = {p: a for p, a in zip(params, call.args)}
        name = _shared_site_name(value.slice, param_map)
        if name is not None:
            return f"{owner}.{name}"
    return None


def _analyze_chare(index: NodeIndex, ct: _ChareTraffic, ev: _Evaluator,
                   aliases: frozenset[str], attr_refs: dict[str, Value],
                   send_map: _t.Mapping[tuple[str, str],
                                        list[Value | None]],
                   filename: str) -> None:
    """Fill one :class:`_ChareTraffic` in (sites, bindings, entries)."""
    cls = ct.cls
    ct.attr_refs = dict(attr_refs)
    declared_literals: list[str] = []
    pending_alias: list[tuple[str, str]] = []
    deferred: list[tuple[str, tuple[str, str, str]]] = []
    module_classes = index.class_named

    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decl: _EntryDecl | None = None
        for dec in method.decorator_list:
            decl = _parse_entry_decorator(dec, aliases)
            if decl is not None:
                break
        scope: dict[_ScopeKey, Value] = {}
        params = method.args.args[1:] + method.args.kwonlyargs
        for arg in params:
            val = ev.annotation_value(arg.annotation)
            if val is not None:
                scope[arg.arg] = val
        mapped = send_map.get((cls.name, method.name))
        if mapped is not None:
            positional = [a.arg for a in method.args.args[1:]]
            for pname, val in zip(positional, mapped):
                if pname not in scope and val is not None:
                    scope[pname] = val
        for attr, val in ct.attr_refs.items():
            scope[("self", attr)] = val
        defs = _assign_defs(index, method)
        in_prefetch = bool(decl is not None and decl.prefetch)

        def make_site(name: str, size_expr: ast.expr | None, line: int,
                      shared: bool) -> SiteTraffic:
            site_id = f"{cls.name}.{name}"
            size = None
            if size_expr is not None:
                got = ev.eval(size_expr, scope, defs)
                size = got if isinstance(got, Sym) else None
            if site_id in ct.sites:
                existing = ct.sites[site_id]
                if not shared:
                    ct.tainted = True  # duplicate literal declare names
                return existing
            site = SiteTraffic(id=site_id, cls=cls.name, name=name,
                               file=filename, line=line, shared=shared,
                               size=size, prefetch_declared=in_prefetch)
            ct.sites[site_id] = site
            return site

        for node in index.walk(method):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                if _is_self_call(call, "share_block", defs) and call.args:
                    name = _shared_site_name(call.args[0])
                    if name is not None:
                        size_expr = (call.args[1]
                                     if len(call.args) > 1 else None)
                        make_site(name, size_expr, call.lineno, shared=True)
                elif _is_self_call(call, "declare_block", defs) \
                        and call.args \
                        and isinstance(call.args[0], ast.Constant) \
                        and isinstance(call.args[0].value, str):
                    declared_literals.append(call.args[0].value)
                    make_site(call.args[0].value,
                              call.args[1] if len(call.args) > 1 else None,
                              call.lineno, shared=False)
                continue
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr, value = target.attr, node.value
            if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
                value = value.elt  # e.g. [vectors.x_block(c) for c in ...]
            if isinstance(value, ast.Call):
                call = value
                if _is_self_call(call, "declare_block", defs) and call.args \
                        and isinstance(call.args[0], ast.Constant) \
                        and isinstance(call.args[0].value, str):
                    declared_literals.append(call.args[0].value)
                    site = make_site(
                        call.args[0].value,
                        call.args[1] if len(call.args) > 1 else None,
                        call.lineno, shared=False)
                    ct.bindings[attr] = site.id
                elif _is_self_call(call, "share_block", defs) and call.args:
                    name = _shared_site_name(call.args[0])
                    if name is None:
                        ct.unresolved.add(attr)
                    else:
                        site = make_site(
                            name, call.args[1] if len(call.args) > 1 else
                            None, call.lineno, shared=True)
                        ct.bindings[attr] = site.id
                elif isinstance(call.func, ast.Attribute):
                    base = ev.eval(call.func.value, scope, defs)
                    resolved = None
                    if isinstance(base, ChareRef) \
                            and base.cls in module_classes:
                        resolved = _resolve_accessor(
                            base.cls, module_classes[base.cls],
                            call.func.attr, call)
                    if resolved is None:
                        ct.unresolved.add(attr)
                    elif isinstance(resolved, tuple):
                        deferred.append((attr, resolved))
                    else:
                        ct.bindings[attr] = resolved
                else:
                    ct.unresolved.add(attr)
            elif isinstance(value, ast.Attribute) \
                    and isinstance(value.value, ast.Name) \
                    and value.value.id == "self":
                pending_alias.append((attr, value.attr))
            elif isinstance(value, ast.Name) and value.id in scope \
                    and not isinstance(scope[value.id], Sym):
                ct.attr_refs[attr] = _t.cast(Value, scope[value.id])
            elif isinstance(value, ast.Constant):
                pass  # scalar counters/flags are not handles
            else:
                # anything else (a parameter, a list, a subscript) may be
                # an externally provided handle: suppress, don't guess
                ct.unresolved.add(attr)

        if decl is not None:
            attr_scope = {("self", a): v for a, v in ct.attr_refs.items()}
            uses = collect_kernel_uses(
                index, _t.cast(ast.FunctionDef, method), cls, aliases,
                ev=ev, attr_scope=attr_scope)
            loops = loop_nests(_t.cast(ast.FunctionDef, method),
                               ev.trip_evaluator(scope, defs))
            ct.entries.append(_EntryTraffic(
                method=_t.cast(ast.FunctionDef, method), decl=decl,
                uses=uses, scope=scope, defs=defs, loops=loops))

    # duplicate literal block names poison site identity for the class
    if len(declared_literals) != len(set(declared_literals)):
        ct.tainted = True
    for attr, source in pending_alias:
        if source in ct.bindings:
            ct.bindings[attr] = ct.bindings[source]
        elif source in ct.unresolved or source not in ct.attr_refs:
            ct.unresolved.add(attr)
    # deferred foreign ``return self.X`` accessors resolve in a second
    # module-level pass (the foreign class may be analyzed after us)
    ct._deferred = deferred  # type: ignore[attr-defined]


def _launches_in(index: NodeIndex, node: ast.AST,
                 uses: list[_KernelUse]) -> bool:
    """Does any use's *anchor* (entry-body launch point) lie in ``node``?"""
    return any(index.contains(node, u.anchor or u.call) for u in uses
               if (u.anchor or u.call) is not None)


def _use_factor(index: NodeIndex, entry: _EntryTraffic, use: _KernelUse,
                ev: _Evaluator) -> Sym:
    """traffic_scale x enclosing bounded-loop trip counts for one launch.

    Helper-derived uses arrive with the helper-context factor
    (traffic_scale × helper-internal trips) pre-folded by the summary
    analysis; entry-level loops around the helper call site multiply on
    top via the anchor.
    """
    factor = use.factor if use.factor is not None else Sym("1", 1.0)
    if use.factor is None and use.call is not None:
        for kw in use.call.keywords:
            if kw.arg == "traffic_scale":
                got = ev.eval(kw.value, entry.scope, entry.defs)
                if isinstance(got, Sym):
                    factor = got
    return _loop_product(index, factor, entry.loops, use.anchor or use.call)


# ---------------------------------------------------------------------------
# rule emission
# ---------------------------------------------------------------------------


def _emit_class_findings(index: NodeIndex, ct: _ChareTraffic,
                         filename: str) -> list[Finding]:
    findings: list[Finding] = []
    cls = ct.cls
    if ct.tainted or not (ct.sites or ct.bindings):
        return findings
    any_unknown = any(
        e.decl.unknown_deps or any(u.unknown for u in e.uses)
        for e in ct.entries)
    prefetch_entries = [e for e in ct.entries if e.decl.prefetch]
    has_prefetch_kernels = any(e.uses for e in prefetch_entries)
    written = set()
    for e in ct.entries:
        for u in e.uses:
            written |= u.writes
    # test-harness wiring like ``chare.a = block`` outside the class
    # suppresses unbound-handle findings
    stores_outside = index.attr_stores_outside(cls)

    for e in prefetch_entries:
        name = e.method.name
        # REP305: unbounded loop around a kernel launch
        for loop in iter_loops(e.loops):
            if not loop.bounded and _launches_in(index, loop.node, e.uses):
                findings.append(_finding(
                    "REP305",
                    "while-loop with no inferable trip count wraps a "
                    "kernel launch — static traffic inference cannot "
                    "bound this phase; drive the loop from a config "
                    "range", filename, loop.line,
                    chare=cls.name, entry=name))
        # REP304: statically impossible simultaneous footprint
        known_bytes = 0.0
        sized = []
        for attr in e.decl.deps:
            site = ct.sites.get(ct.bindings.get(attr, ""))
            if site is not None and site.size is not None \
                    and site.size.known():
                known_bytes += site.size.value
                sized.append(attr)
        if known_bytes > DEFAULT_HBM_BYTES:
            findings.append(_finding(
                "REP304",
                f"dependences {sized} are simultaneously live and their "
                f"static sizes sum to {known_bytes / GiB:.1f} GiB, above "
                f"the {DEFAULT_HBM_BYTES / GiB:.0f} GiB HBM tier — no "
                "eviction order makes this task fit", filename,
                e.decl.line, chare=cls.name, entry=name))
        # REP306: aliased handles with conflicting intents
        by_site: dict[str, dict[str, str]] = {}
        for attr, intent in e.decl.deps.items():
            site_id = ct.bindings.get(attr)
            if site_id is not None:
                by_site.setdefault(site_id, {})[attr] = intent
        for site_id, members in sorted(by_site.items()):
            if len(members) > 1 and len(set(members.values())) > 1:
                pairs = ", ".join(f"{a}={i}"
                                  for a, i in sorted(members.items()))
                findings.append(_finding(
                    "REP306",
                    f"handles {pairs} are aliases of the same block "
                    f"site {site_id!r} with conflicting intents",
                    filename, e.decl.line, chare=cls.name, entry=name))
        if any_unknown:
            continue
        # REP300: readwrite that is never written anywhere in the class
        for attr, intent in e.decl.deps.items():
            if intent != "readwrite" or attr in e.decl.duplicate_intents:
                continue
            if attr not in ct.bindings or attr in written:
                continue
            findings.append(_finding(
                "REP300",
                f"dependence {attr!r} is declared readwrite but no "
                "kernel in this class ever writes it — eviction will "
                "write back a clean block; declare it readonly",
                filename, e.decl.line, chare=cls.name, entry=name))
        # REP303: declared + used dependence whose handle is never bound.
        # Only meaningful when the class has a real setup phase (a site
        # declared outside any [prefetch] entry) — otherwise binding
        # plausibly happens somewhere the analyzer cannot see.
        if not any(not s.prefetch_declared for s in ct.sites.values()):
            continue
        used_here = set()
        for u in e.uses:
            used_here |= u.reads | u.writes
        for attr in sorted(set(e.decl.deps) & used_here):
            if attr in ct.bindings or attr in ct.unresolved \
                    or attr in ct.attr_refs or attr in stores_outside:
                continue
            findings.append(_finding(
                "REP303",
                f"dependence {attr!r} is declared and used but "
                f"self.{attr} is never bound to a block site in "
                f"{cls.name} — the prefetch phase has nothing to fetch "
                "for it", filename, e.decl.line,
                chare=cls.name, entry=name))

    # REP301: own chare-private site nothing in the module ever loads
    if has_prefetch_kernels and not any_unknown:
        bound_attrs = {attr: sid for attr, sid in ct.bindings.items()}
        for attr, site_id in sorted(bound_attrs.items()):
            site = ct.sites.get(site_id)
            if site is None or site.shared or site.prefetch_declared:
                continue
            if attr in index.attr_loads:
                continue
            findings.append(_finding(
                "REP301",
                f"block {site.name!r} (self.{attr}) is declared but "
                "nothing in this module ever reads the handle — a dead "
                "allocation occupying tier capacity", filename,
                site.line, chare=cls.name, entry=""))
    return findings


def _emit_shared_intent_findings(chares: list[_ChareTraffic],
                                 filename: str) -> list[Finding]:
    """REP302: shared sites declared writeonly by every referencing entry."""
    findings: list[Finding] = []
    intents: dict[str, set[str]] = {}
    unknown: set[str] = set()
    owners: dict[str, tuple[_ChareTraffic, SiteTraffic]] = {}
    for ct in chares:
        for site in ct.sites.values():
            if site.shared:
                owners[site.id] = (ct, site)
        for e in ct.entries:
            dirty = e.decl.unknown_deps or any(u.unknown for u in e.uses)
            for attr, intent in e.decl.deps.items():
                site_id = ct.bindings.get(attr)
                if site_id is None:
                    continue
                intents.setdefault(site_id, set()).add(intent)
                if dirty:
                    unknown.add(site_id)
    for site_id, (owner, site) in sorted(owners.items()):
        if owner.tainted or site_id in unknown:
            continue
        site.intents = intents.get(site_id, set())
        if site.intents == {"writeonly"}:
            findings.append(_finding(
                "REP302",
                f"shared block {site.name!r} is declared writeonly by "
                "every kernel that references it and read by none — "
                "node-level HBM sharing buys nothing here", filename,
                site.line, chare=site.cls, entry=""))
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_tree(index: NodeIndex, filename: str = "<string>"
                 ) -> ModuleTraffic:
    """Run the full traffic analysis over one indexed module."""
    ev = _Evaluator(index)
    aliases = _module_entry_aliases(index.tree)
    refs_of = {c: _class_attr_refs(index, c, ev) for c in index.classes}
    class_refs = {c.name: refs for c, refs in refs_of.items()}
    sigs = _entry_signatures(index.chares, aliases)
    send_map = _send_arg_map(index, ev, class_refs, sigs)

    chares: list[_ChareTraffic] = []
    for cls in index.chares:
        ct = _ChareTraffic(cls=cls)
        try:
            _analyze_chare(index, ct, ev, aliases, refs_of[cls], send_map,
                           filename)
        except Exception as exc:  # noqa: BLE001 - crash contract
            raise AnalyzerCrash(filename, cls.name, exc) from exc
        chares.append(ct)

    # second pass: deferred foreign ``return self.X`` accessor bindings
    by_name = {ct.cls.name: ct for ct in chares}
    for ct in chares:
        for attr, (_tag, owner, fattr) in getattr(ct, "_deferred", []):
            other = by_name.get(owner)
            if other is not None and fattr in other.bindings:
                ct.bindings[attr] = other.bindings[fattr]
            else:
                ct.unresolved.add(attr)

    findings: list[Finding] = []
    for ct in chares:
        try:
            findings.extend(_emit_class_findings(index, ct, filename))
        except Exception as exc:  # noqa: BLE001 - crash contract
            raise AnalyzerCrash(filename, ct.cls.name, exc) from exc
    findings.extend(_emit_shared_intent_findings(chares, filename))

    sites = _aggregate_traffic(index, chares, ev)
    # the phase-ordered layer (REP31x); lazy import — phases.py imports
    # this module's internals at its own top level
    from repro.lint.phases import analyze_phases
    try:
        timeline = analyze_phases(index, filename, ev, chares, class_refs,
                                  aliases)
    except Exception as exc:  # noqa: BLE001 - crash contract
        raise AnalyzerCrash(filename, "<phases>", exc) from exc
    findings.extend(timeline.findings)
    return ModuleTraffic(file=filename, findings=findings, sites=sites,
                         timeline=timeline)


def _aggregate_traffic(index: NodeIndex, chares: list[_ChareTraffic],
                       ev: _Evaluator) -> dict[str, SiteTraffic]:
    """Fold kernel launches into per-site read/write byte volumes."""
    sites: dict[str, SiteTraffic] = {}
    for ct in chares:
        for site in ct.sites.values():
            sites[site.id] = site
    touch_order = 0
    for ct in chares:
        if ct.tainted:
            continue
        for e in ct.entries:
            if not e.decl.prefetch:
                continue
            for attr, intent in e.decl.deps.items():
                site = sites.get(ct.bindings.get(attr, ""))
                if site is not None:
                    site.intents.add(intent)
                    if site.order < 0:
                        site.order = touch_order
                        touch_order += 1
            for use in e.uses:
                factor = _use_factor(index, e, use, ev)
                for attr in sorted(use.reads):
                    site = sites.get(ct.bindings.get(attr, ""))
                    if site is not None and site.size is not None:
                        site.reads = _sym_add(
                            site.reads, _sym_mul(site.size, factor))
                for attr in sorted(use.writes):
                    site = sites.get(ct.bindings.get(attr, ""))
                    if site is not None and site.size is not None:
                        site.writes = _sym_add(
                            site.writes, _sym_mul(site.size, factor))
                if use.unknown:
                    for attr in (set(e.decl.deps) - use.reads
                                 - use.writes):
                        site = sites.get(ct.bindings.get(attr, ""))
                        if site is not None:
                            site.intent_unknown = True
    return sites


def check_tree(index: NodeIndex, filename: str = "<string>"
               ) -> list[Finding]:
    """The REP3xx findings for one indexed module (bwlint rule surface)."""
    return analyze_tree(index, filename).findings
