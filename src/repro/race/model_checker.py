"""Static placement-state model checker (rules ``REP2xx``).

An AST pass over the placement-protocol classes — anything in the
transitive subclass closure of ``Strategy`` or ``DataMover`` (including
those roots themselves) — verifying that every code path respects the
legal ``INDDR → MOVING → INHBM`` (and reverse) transitions of
:class:`repro.mem.block.DataBlock`:

* **REP200** — ``x.state = BlockState.Y`` assignments: placement may only
  change through ``begin_move()``/``settle()``, never by raw assignment;
* **REP201** — ``settle(..., BlockState.MOVING)``: the transient state is
  entered only via ``begin_move()``;
* **REP202** — eviction (an ``evict_block(...)`` call, or a mover move
  whose destination mentions DDR) whose victim is not dominated by an
  ``in_use``/``pinned`` guard — either an enclosing ``if`` test or an
  earlier guard-clause ``if victim.in_use ...: raise`` in the same
  function;
* **REP203** — an exit path (``return``/``raise``, or function
  fall-through) after ``begin_move()`` with no ``settle()`` before it:
  the block would be stuck ``MOVING`` forever;
* **REP204** — a strategy method that calls the mover directly without
  ``begin_inflight()``: concurrent fetchers cannot join the move;
* **REP205** — a discarded ``fetch_task_blocks()`` result: the fetch may
  have failed, and making the task ready anyway runs it on non-resident
  blocks.

The dataflow is deliberately approximate (sibling order stands in for
dominance), tuned so the shipped strategies and mover check clean while
each seeded defect in ``tests/fixtures/racy_strategy.py`` is caught.
The pass runs as part of :func:`repro.lint.check_source`; ``repro lint
--strict --select REP2 TARGET...`` reports it alone.
"""

from __future__ import annotations

import ast
import typing as _t

from repro.lint.findings import Finding
from repro.lint.nodeindex import NodeIndex, base_name
from repro.lint.rules import STATIC_RULES

__all__ = ["check_tree"]

#: class names whose (transitive) subclasses own the placement protocol
MODEL_ROOTS = {"Strategy", "DataMover", "Mover"}

#: block attributes whose test in a guard protects an eviction victim
_GUARD_ATTRS = {"in_use", "pinned"}

#: statements that end a guard clause (make the guard a real gate)
_FLOW_BREAKS = (ast.Raise, ast.Return, ast.Continue, ast.Break)


def _finding(rule_id: str, message: str, file: str, line: int, *,
             chare: str = "", entry: str = "") -> Finding:
    spec = STATIC_RULES[rule_id]
    return Finding(rule=rule_id, severity=spec.severity, message=message,
                   file=file, line=line, chare=chare, entry=entry)


# -- scope discovery -----------------------------------------------------------


def _protocol_like(name: str | None, like: set[str]) -> bool:
    """A base opts its subclass in: an exact root/known name, or any
    cross-module subclass of a ``*Strategy``/``*Mover`` class (the closure
    is per-file, so ``RacyIOStrategy(SingleIOThreadStrategy)`` in a fixture
    must scope in without seeing ``single_io.py``)."""
    return name is not None and (name in like
                                 or name.endswith(("Strategy", "Mover")))


def _protocol_classes(index: NodeIndex) -> list[ast.ClassDef]:
    """Classes in the subclass closure of the protocol roots, roots included."""
    like = set(MODEL_ROOTS)
    changed = True
    while changed:
        changed = False
        for cls in index.classes:
            if cls.name in like:
                continue
            if any(_protocol_like(base_name(b), like) for b in cls.bases):
                like.add(cls.name)
                changed = True
    return [c for c in index.classes if c.name in like]


def _own(index: NodeIndex, method: ast.AST, node: ast.AST) -> bool:
    """Is ``node`` in ``method``'s own body, not inside a nested def?"""
    above = index.parent(node)
    while above is not method:
        if isinstance(above, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            return False
        above = index.parent(above)
    return True


def _within(index: NodeIndex, roots: _t.Sequence[ast.AST],
            nodes: _t.Iterable[ast.AST]) -> list[ast.AST]:
    """The ``nodes`` that lie inside one of the ``roots`` subtrees."""
    return [n for n in nodes if any(index.contains(r, n) for r in roots)]


# -- small matchers ------------------------------------------------------------


def _is_blockstate(node: ast.expr, member: str | None = None) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "BlockState"
            and (member is None or node.attr == member))


def _attr_call(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


def _mover_call(node: ast.AST) -> bool:
    """``<expr>.mover.move(...)`` / ``.move_migrate_pages(...)``."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("move", "move_migrate_pages")
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "mover")


def _names_ddr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return "ddr" in node.attr.lower()
    return isinstance(node, ast.Name) and "ddr" in node.id.lower()


def _guard_name(node: ast.AST) -> str | None:
    """``x`` for an ``x.in_use``/``x.pinned`` read, else None."""
    if isinstance(node, ast.Attribute) and node.attr in _GUARD_ATTRS \
            and isinstance(node.value, ast.Name):
        return node.value.id
    return None


# -- per-rule passes -----------------------------------------------------------


def _check_state_assigns(index: NodeIndex, cls: ast.ClassDef,
                         file: str) -> list[Finding]:
    findings = []
    for node in index.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Attribute) and t.attr == "state"
                   for t in node.targets):
            continue
        if _is_blockstate(node.value):
            findings.append(_finding(
                "REP200",
                f"raw placement assignment .state = "
                f"BlockState.{node.value.attr}; use begin_move()/settle()",
                file, node.lineno, chare=cls.name))
    return findings


def _check_settle_literals(index: NodeIndex, cls: ast.ClassDef,
                           file: str) -> list[Finding]:
    findings = []
    for node in index.calls(cls):
        if not _attr_call(node, "settle"):
            continue
        operands = list(node.args) + [kw.value for kw in node.keywords]
        if any(_is_blockstate(arg, "MOVING") for arg in operands):
            findings.append(_finding(
                "REP201",
                "settle(..., BlockState.MOVING): settle() must bind a "
                "concrete placement state", file, node.lineno,
                chare=cls.name))
    return findings


def _check_evictions(index: NodeIndex, cls: ast.ClassDef,
                     method: ast.FunctionDef, file: str) -> list[Finding]:
    findings: list[Finding] = []
    nodes = index.walk(method)
    guards = [n for n in nodes if _guard_name(n) is not None]

    def guarded_names(test: ast.expr) -> set[str | None]:
        return {_guard_name(g) for g in _within(index, [test], guards)}

    # guard clauses: `if victim.in_use ...: raise/return/...` earlier in
    # the method dominate everything after them (sibling-order approx.)
    breaks = [n for n in nodes if isinstance(n, _FLOW_BREAKS)]
    guard_clauses: list[tuple[str, int]] = []
    for node in nodes:
        if not isinstance(node, ast.If):
            continue
        names = guarded_names(node.test)
        if names and _within(index, node.body, breaks):
            guard_clauses.extend((name, node.lineno) for name in names)
    ddr = [n for n in nodes if _names_ddr(n)]
    for node in index.calls(method):
        victim: ast.expr | None = None
        if _attr_call(node, "evict_block") and node.args:
            victim = node.args[0]
        elif _mover_call(node) and len(node.args) >= 2 \
                and _within(index, [node.args[1]], ddr):
            victim = node.args[0]
        if not isinstance(victim, ast.Name):
            continue
        name = victim.id
        guarded = any(g_name == name and g_line < node.lineno
                      for g_name, g_line in guard_clauses)
        ancestor = index.parent(node)
        while not guarded and ancestor is not method:
            if isinstance(ancestor, (ast.If, ast.While)) \
                    and name in guarded_names(ancestor.test):
                guarded = True
            ancestor = index.parent(ancestor)
        if not guarded:
            findings.append(_finding(
                "REP202",
                f"eviction of {name!r} with no in_use/pinned guard on "
                f"this path", file, node.lineno,
                chare=cls.name, entry=method.name))
    return findings


def _check_move_exits(index: NodeIndex, cls: ast.ClassDef,
                      method: ast.FunctionDef, file: str) -> list[Finding]:
    nodes = [n for n in index.walk(method)[1:]
             if (isinstance(n, (ast.Return, ast.Raise))
                 or _attr_call(n, "begin_move") or _attr_call(n, "settle"))
             and _own(index, method, n)]
    begins = [n.lineno for n in nodes if _attr_call(n, "begin_move")]
    if not begins:
        return []
    begin_line = min(begins)
    settles = sorted(n.lineno for n in nodes if _attr_call(n, "settle")
                     if n.lineno > begin_line)
    findings: list[Finding] = []
    if not settles:
        findings.append(_finding(
            "REP203",
            "begin_move() with no settle() anywhere after it — every "
            "exit leaves the block stuck MOVING", file, begin_line,
            chare=cls.name, entry=method.name))
        return findings
    for node in nodes:
        if not isinstance(node, (ast.Return, ast.Raise)):
            continue
        if node.lineno <= begin_line:
            continue
        if not any(s <= node.lineno for s in settles):
            kind = "return" if isinstance(node, ast.Return) else "raise"
            findings.append(_finding(
                "REP203",
                f"{kind} after begin_move() with no settle() before it "
                f"on this path", file, node.lineno,
                chare=cls.name, entry=method.name))
    return findings


def _check_inflight(index: NodeIndex, cls: ast.ClassDef,
                    method: ast.FunctionDef, file: str) -> list[Finding]:
    mover_calls = [n for n in index.calls(method) if _mover_call(n)]
    if not mover_calls:
        return []
    if any(_attr_call(n, "begin_inflight") for n in index.calls(method)):
        return []
    return [_finding(
        "REP204",
        "mover call without begin_inflight() in this method — concurrent "
        "fetchers cannot join the move", file, call.lineno,
        chare=cls.name, entry=method.name) for call in mover_calls]


def _check_fetch_results(index: NodeIndex, cls: ast.ClassDef,
                         method: ast.FunctionDef, file: str
                         ) -> list[Finding]:
    findings = []
    for node in index.walk(method):
        if not isinstance(node, ast.Expr):
            continue
        value = node.value
        if isinstance(value, (ast.YieldFrom, ast.Await)):
            value = value.value
        if _attr_call(value, "fetch_task_blocks"):
            findings.append(_finding(
                "REP205",
                "fetch_task_blocks() result discarded — on failure the "
                "task must not be made ready", file, node.lineno,
                chare=cls.name, entry=method.name))
    return findings


# -- entry points --------------------------------------------------------------


def check_tree(index: NodeIndex, filename: str) -> list[Finding]:
    """Model-check one indexed module; returns findings (empty on clean)."""
    findings: list[Finding] = []
    for cls in _protocol_classes(index):
        findings.extend(_check_state_assigns(index, cls, filename))
        findings.extend(_check_settle_literals(index, cls, filename))
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for check in (_check_evictions, _check_move_exits,
                          _check_inflight, _check_fetch_results):
                findings.extend(check(index, cls, method, filename))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
