"""Static dependence-declaration checker (paper §IV-A cross-check).

The paper's correctness contract is that every ``[prefetch]`` entry method
declares exactly the blocks its kernel touches, with truthful intents —
the runtime prefetches, refcounts and evicts *by declaration*, never by
observation.  This pass parses application source (no import, no
execution) and cross-checks each ``@entry(prefetch=..., readonly=[...],
readwrite=[...], writeonly=[...])`` declaration against the method body's
actual ``self.kernel(reads=[...], writes=[...])`` usage.

The body analysis is a *may-use* approximation: ``[self.b, self.c][:n]``
counts both ``b`` and ``c`` as possibly read (the STREAM app's
kernel-selection idiom), and ``[self.A] + list(self.x_blocks)`` resolves
through the local-variable and ``list()`` wrappers (the SpMV
data-dependent coupling idiom).  Expressions the extractor cannot resolve
mark the use-set *unknown*, which suppresses the rules that need
exactness (undeclared/dead) rather than guessing.

Rule ids and severities live in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import typing as _t

from repro.lint.dataflow import Sym
from repro.lint.findings import Finding, LintReport
from repro.lint.nodeindex import NodeIndex
from repro.lint.rules import STATIC_RULES

__all__ = ["check_paths", "check_file", "check_source", "iter_python_files"]

#: names that always denote the entry decorator
_ENTRY_NAMES = frozenset({"entry"})


def _finding(rule_id: str, message: str, file: str, line: int, *,
             chare: str = "", entry: str = "") -> Finding:
    spec = STATIC_RULES[rule_id]
    return Finding(rule=rule_id, severity=spec.severity, message=message,
                   file=file, line=line, chare=chare, entry=entry)


# -- entry-decorator parsing ---------------------------------------------------


@dataclasses.dataclass
class _EntryDecl:
    """Parsed ``@entry(...)`` decoration on one method."""

    line: int
    prefetch: bool = False
    #: attr name -> intent string ("readonly" | "readwrite" | "writeonly")
    deps: dict[str, str] = dataclasses.field(default_factory=dict)
    #: same name declared under two intents: (name, line) pairs
    duplicate_intents: list[str] = dataclasses.field(default_factory=list)
    #: True when a dep list was not a literal list of strings
    unknown_deps: bool = False


def _module_entry_aliases(tree: ast.Module) -> frozenset[str]:
    """Module-level names bound to the ``entry`` decorator.

    Covers the alias blind spots: ``from ... import entry as kernel_entry``
    and ``my_entry = entry`` (or ``my_entry = runtime.entry``).  Aliases of
    aliases resolve transitively within the module body.
    """
    aliases = set(_ENTRY_NAMES)
    changed = True
    while changed:
        changed = False
        for node in tree.body:
            name: str | None = None
            if isinstance(node, ast.ImportFrom):
                for item in node.names:
                    if item.name == "entry" and item.asname \
                            and item.asname not in aliases:
                        aliases.add(item.asname)
                        changed = True
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                if isinstance(value, ast.Name) and value.id in aliases:
                    name = node.targets[0].id
                elif isinstance(value, ast.Attribute) \
                        and value.attr == "entry":
                    name = node.targets[0].id
            if name is not None and name not in aliases:
                aliases.add(name)
                changed = True
    return frozenset(aliases)


def _decorator_is_entry(dec: ast.expr,
                        aliases: frozenset[str] = _ENTRY_NAMES) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id in aliases
    if isinstance(target, ast.Attribute):
        return target.attr == "entry"
    return False


def _parse_entry_decorator(dec: ast.expr,
                           aliases: frozenset[str] = _ENTRY_NAMES
                           ) -> _EntryDecl | None:
    if not _decorator_is_entry(dec, aliases):
        return None
    decl = _EntryDecl(line=dec.lineno)
    if not isinstance(dec, ast.Call):
        return decl
    for kw in dec.keywords:
        if kw.arg == "prefetch":
            if isinstance(kw.value, ast.Constant):
                decl.prefetch = bool(kw.value.value)
            else:
                decl.unknown_deps = True
        elif kw.arg in ("readonly", "readwrite", "writeonly"):
            names = _literal_str_list(kw.value)
            if names is None:
                decl.unknown_deps = True
                continue
            for name in names:
                if name in decl.deps:
                    decl.duplicate_intents.append(name)
                decl.deps[name] = kw.arg
    return decl


def _literal_str_list(node: ast.expr) -> list[str] | None:
    if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return None
    out: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return out


# -- kernel-argument extraction -------------------------------------------------

#: wrappers that pass their first argument's blocks through
_TRANSPARENT_CALLS = {"list", "tuple", "sorted", "reversed", "set"}


def _block_attrs(node: ast.expr | None,
                 local_defs: _t.Mapping[str, ast.expr],
                 _depth: int = 0) -> tuple[set[str], bool]:
    """``self.X`` attribute names an expression may evaluate to.

    Returns ``(attrs, unknown)``; ``unknown`` is True when part of the
    expression could not be resolved, making the set a lower bound.
    """
    if node is None or _depth > 20:
        return set(), node is not None
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return {node.attr}, False
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        attrs: set[str] = set()
        unknown = False
        for elt in node.elts:
            sub, sub_unknown = _block_attrs(elt, local_defs, _depth + 1)
            attrs |= sub
            unknown |= sub_unknown
        return attrs, unknown
    if isinstance(node, ast.Starred):
        return _block_attrs(node.value, local_defs, _depth + 1)
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in _TRANSPARENT_CALLS \
                and len(node.args) == 1:
            return _block_attrs(node.args[0], local_defs, _depth + 1)
        return set(), True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, lu = _block_attrs(node.left, local_defs, _depth + 1)
        right, ru = _block_attrs(node.right, local_defs, _depth + 1)
        return left | right, lu or ru
    if isinstance(node, ast.Subscript):
        # A slice/index of a block list may use any element: may-use.
        return _block_attrs(node.value, local_defs, _depth + 1)
    if isinstance(node, ast.IfExp):
        body, bu = _block_attrs(node.body, local_defs, _depth + 1)
        orelse, ou = _block_attrs(node.orelse, local_defs, _depth + 1)
        return body | orelse, bu or ou
    if isinstance(node, ast.Name):
        if node.id in local_defs:
            return _block_attrs(local_defs[node.id], local_defs, _depth + 1)
        return set(), True
    if isinstance(node, ast.Constant) and node.value in (None, (), []):
        return set(), False
    return set(), True


@dataclasses.dataclass
class _KernelUse:
    """One ``self.kernel(...)`` call's extracted read/write attrs."""

    line: int
    reads: set[str]
    writes: set[str]
    unknown: bool
    #: the call node itself (the traffic analyzer reads kwargs off it)
    call: ast.Call | None = None
    #: the node *in the analyzed entry's body* that launches this kernel —
    #: the kernel call itself for direct launches, the helper call site
    #: for summary-expanded ones (loop containment tests use this)
    anchor: ast.Call | None = None
    #: pre-folded traffic factor from the helper context (traffic_scale x
    #: helper-internal trips); None means "direct use, evaluate in the
    #: entry's own scope"
    factor: Sym | None = None


def _local_defs(index: NodeIndex,
                func: ast.FunctionDef | ast.AsyncFunctionDef
                ) -> dict[str, ast.expr]:
    defs: dict[str, ast.expr] = {}
    for node in index.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            defs[node.targets[0].id] = node.value
    return defs


def _is_self_expr(node: ast.expr,
                  local_defs: _t.Mapping[str, ast.expr],
                  _depth: int = 0) -> bool:
    """Does this expression denote ``self`` (directly or via an alias)?"""
    if _depth > 5:
        return False
    if isinstance(node, ast.Name):
        if node.id == "self":
            return True
        target = local_defs.get(node.id)
        # ``this = self`` alias chains; guard against ``self = self``-style
        # self-reference loops via the depth bound
        return target is not None and _is_self_expr(target, local_defs,
                                                    _depth + 1)
    return False


def _is_self_call(node: ast.Call, method: str,
                  local_defs: _t.Mapping[str, ast.expr] | None = None
                  ) -> bool:
    """Is this call ``self.<method>(...)``, resolving local aliases?

    Covers the alias blind spots: ``kern = self.kernel; kern(...)`` and
    ``this = self; this.kernel(...)``.
    """
    defs: _t.Mapping[str, ast.expr] = local_defs or {}
    fn = node.func
    if isinstance(fn, ast.Name):
        target = defs.get(fn.id)
        if target is None or not isinstance(target, ast.Attribute):
            return False
        fn = target
    return (isinstance(fn, ast.Attribute) and fn.attr == method
            and _is_self_expr(fn.value, defs))


def _class_helper_methods(cls: ast.ClassDef, aliases: frozenset[str]
                          ) -> dict[str, ast.FunctionDef]:
    """Non-entry methods of ``cls``, candidates for call inlining."""
    out: dict[str, ast.FunctionDef] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_decorator_is_entry(dec, aliases)
               for dec in method.decorator_list):
            continue
        out[method.name] = _t.cast(ast.FunctionDef, method)
    return out


def _collect_kernel_uses(index: NodeIndex, func: ast.FunctionDef,
                         cls: ast.ClassDef, aliases: frozenset[str]
                         ) -> list[_KernelUse]:
    """Kernel calls reachable from ``func``'s body (interprocedural).

    ``self.helper()`` calls to non-entry methods of the same class
    resolve through per-method summaries (:mod:`repro.lint.callgraph`) —
    complete at any call depth, recursion-widened — so kernels launched
    through nested helpers are attributed to the calling entry instead
    of falling through to unknown-suppression.
    """
    # lazy: callgraph imports this module's extraction primitives
    from repro.lint.callgraph import collect_kernel_uses
    return collect_kernel_uses(index, func, cls, aliases)


def _collect_declared_blocks(index: NodeIndex, func: ast.FunctionDef
                             ) -> list[tuple[str, int]]:
    """Literal first arguments of ``self.declare_block(...)`` calls."""
    local_defs = _local_defs(index, func)
    out: list[tuple[str, int]] = []
    for node in index.calls(func):
        if _is_self_call(node, "declare_block", local_defs):
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                out.append((node.args[0].value, node.lineno))
            else:
                out.append(("", node.lineno))
    return out


# -- per-class checks -------------------------------------------------------------


def _check_class(index: NodeIndex, cls: ast.ClassDef, file: str,
                 aliases: frozenset[str]) -> list[Finding]:
    findings: list[Finding] = []
    declared_names: dict[str, int] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decl: _EntryDecl | None = None
        for dec in method.decorator_list:
            decl = _parse_entry_decorator(dec, aliases)
            if decl is not None:
                break
        block_decls = _collect_declared_blocks(index, method)
        for name, line in block_decls:
            if not name:
                continue
            if name in declared_names:
                findings.append(_finding(
                    "REP106",
                    f"block {name!r} declared twice (first at line "
                    f"{declared_names[name]})", file, line,
                    chare=cls.name, entry=method.name))
            else:
                declared_names[name] = line
        if decl is None:
            continue  # helper method: declare_block here may run from setup
        if decl.prefetch and block_decls:
            findings.append(_finding(
                "REP107",
                "declare_block inside a [prefetch] entry; blocks must be "
                "declared during setup, before finalize_placement()",
                file, block_decls[0][1], chare=cls.name, entry=method.name))
        for name in decl.duplicate_intents:
            findings.append(_finding(
                "REP105", f"dependence {name!r} declared with two intents",
                file, decl.line, chare=cls.name, entry=method.name))
        if decl.prefetch and not decl.deps and not decl.unknown_deps:
            findings.append(_finding(
                "REP103", "[prefetch] entry declares no data dependences",
                file, decl.line, chare=cls.name, entry=method.name))
        findings.extend(_check_entry_body(index, cls, method, decl, file,
                                          aliases))
    return findings


def _check_entry_body(index: NodeIndex, cls: ast.ClassDef,
                      method: ast.FunctionDef, decl: _EntryDecl, file: str,
                      aliases: frozenset[str]) -> list[Finding]:
    findings: list[Finding] = []
    uses = _collect_kernel_uses(index, method, cls, aliases)
    if not uses:
        return findings
    used_reads: set[str] = set()
    used_writes: set[str] = set()
    any_unknown = False
    for use in uses:
        used_reads |= use.reads
        used_writes |= use.writes
        any_unknown |= use.unknown
    if not decl.prefetch and not decl.deps and not decl.unknown_deps:
        findings.append(_finding(
            "REP108",
            "self.kernel() in an entry without [prefetch]: the task is "
            "invisible to the OOC manager (no prefetch, no refcount "
            "gating)", file, uses[0].line,
            chare=cls.name, entry=method.name))
        return findings
    for attr in sorted((used_reads | used_writes) - set(decl.deps)):
        if decl.unknown_deps:
            break  # cannot prove undeclared against a non-literal list
        findings.append(_finding(
            "REP101",
            f"kernel uses self.{attr} but the entry does not declare it",
            file, uses[0].line, chare=cls.name, entry=method.name))
    for attr, intent in decl.deps.items():
        if intent == "readonly" and attr in used_writes:
            findings.append(_finding(
                "REP102",
                f"self.{attr} is declared readonly but appears in writes=",
                file, uses[0].line, chare=cls.name, entry=method.name))
        if intent == "writeonly" and attr in used_reads:
            findings.append(_finding(
                "REP102",
                f"self.{attr} is declared writeonly but appears in reads=",
                file, uses[0].line, chare=cls.name, entry=method.name))
    if not any_unknown:
        for attr in decl.deps:
            if attr not in used_reads and attr not in used_writes:
                findings.append(_finding(
                    "REP104",
                    f"declared dependence {attr!r} is never used by a "
                    "kernel in this entry", file, decl.line,
                    chare=cls.name, entry=method.name))
    return findings


# -- entry points ------------------------------------------------------------------


def check_source(source: str, filename: str = "<string>") -> list[Finding]:
    """Lint one source text; returns findings (empty on clean).

    Runs both the declaration cross-check (``REP1xx``) and the
    placement-state model checker (``REP2xx``,
    :mod:`repro.race.model_checker`) and the traffic pass (``REP3xx``)
    over the same parse and one :class:`~repro.lint.nodeindex.NodeIndex`.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [_finding("REP100", f"could not parse: {exc.msg}",
                         filename, exc.lineno or 1)]
    index = NodeIndex(tree)
    findings: list[Finding] = []
    aliases = _module_entry_aliases(tree)
    for cls in index.chares:
        findings.extend(_check_class(index, cls, filename, aliases))
    # lazy: guidance builds import this module for iter_python_files
    # alone and never load the model checker
    from repro.race.model_checker import check_tree as _model_check_tree
    findings.extend(_model_check_tree(index, filename))
    # the bwlint traffic pass (REP3xx); lazy because repro.lint.traffic
    # imports this module, so a top-level import here would be a cycle
    from repro.lint.traffic import check_tree as _traffic_check_tree
    findings.extend(_traffic_check_tree(index, filename))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def check_file(path: str | os.PathLike) -> list[Finding]:
    """Lint one python file; findings are anchored to its path."""
    with open(path, encoding="utf-8") as fh:
        return check_source(fh.read(), filename=str(path))


def iter_python_files(paths: _t.Iterable[str | os.PathLike]
                      ) -> _t.Iterator[str]:
    """Expand files / directories / importable module names to .py files."""
    for path in paths:
        spath = str(path)
        if os.path.isdir(spath):
            for dirpath, dirnames, filenames in os.walk(spath):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        yield os.path.join(dirpath, fn)
        elif os.path.isfile(spath):
            yield spath
        else:
            yield from _module_files(spath)


def _module_files(name: str) -> _t.Iterator[str]:
    import importlib.util
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError) as exc:
        raise FileNotFoundError(
            f"lint target {name!r} is neither a path nor an importable "
            f"module ({exc})") from None
    if spec is None:
        raise FileNotFoundError(
            f"lint target {name!r} is neither a path nor an importable module")
    if spec.submodule_search_locations:
        for location in spec.submodule_search_locations:
            yield from iter_python_files([location])
    elif spec.origin and spec.origin.endswith(".py"):
        yield spec.origin


def check_paths(paths: _t.Iterable[str | os.PathLike]) -> LintReport:
    """Lint every python file under ``paths``; returns the aggregate report."""
    report = LintReport()
    for file in iter_python_files(paths):
        report.extend(check_file(file))
    return report
