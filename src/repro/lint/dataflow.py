"""Generic monotone dataflow framework over :mod:`repro.lint.cfg`.

The engine is the classic worklist fixpoint over a join-semilattice of
finite fact sets: a :class:`DataflowProblem` names a direction, a
boundary value, and a per-block transfer function; :func:`solve` iterates
until no block's output changes.  Termination is guaranteed because all
shipped problems use set-union join and monotone gen/kill transfers over
the finite universe of facts syntactically present in one function —
each iteration can only grow a block's set, and the lattice has finite
height.

Two canonical instances ship here — :class:`ReachingDefinitions`
(forward-may) and :class:`Liveness` (backward-may) — plus the loop-nest
walk (:func:`loop_nests`) with symbolic trip-count inference that
:mod:`repro.lint.traffic` multiplies into its byte-volume estimates.
``while`` loops are *unbounded* in this lattice (trip ``None``), which is
exactly what rule ``REP305`` reports when one wraps a kernel launch.

Symbolic values are :class:`Sym` pairs — a human-readable expression
string plus an optional resolved float — forming the constant half of
the traffic analyzer's domain.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

from repro.lint.cfg import CFG

__all__ = [
    "Sym", "sym_add", "sym_bin", "sym_mul",
    "DataflowProblem", "solve",
    "ReachingDefinitions", "Liveness",
    "Loop", "loop_nests", "iter_loops",
]

Fact = _t.Hashable
FactSet = frozenset


@dataclasses.dataclass(frozen=True)
class Sym:
    """A symbolic scalar: source expression plus optional resolved value.

    ``value is None`` means "known expression, unknown magnitude" (top of
    the constant lattice for arithmetic purposes); analyses degrade
    gracefully instead of guessing.
    """

    expr: str
    value: float | None = None

    def known(self) -> bool:
        """True when the magnitude resolved to a concrete number."""
        return self.value is not None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        if self.value is None:
            return self.expr
        return f"{self.expr}={self.value:g}"


_SYM_OPS: dict[str, _t.Callable[[float, float], float]] = {
    "+": lambda x, y: x + y, "-": lambda x, y: x - y,
    "*": lambda x, y: x * y, "/": lambda x, y: x / y,
    "//": lambda x, y: x // y, "%": lambda x, y: x % y,
    "**": lambda x, y: x ** y,
}


def sym_bin(op: str, a: Sym, b: Sym) -> Sym:
    """Combine two :class:`Sym` under a binary operator, tracking both the
    expression string and (when both sides resolved) the value."""
    value: float | None = None
    if a.known() and b.known():
        try:
            value = _SYM_OPS[op](a.value, b.value)
        except (OverflowError, ValueError, ZeroDivisionError):
            value = None
    return Sym(f"({a.expr} {op} {b.expr})", value)


def sym_add(a: Sym | None, b: Sym) -> Sym:
    """Accumulate ``b`` into ``a`` (None acts as the additive identity)."""
    if a is None:
        return b
    return sym_bin("+", a, b)


def sym_mul(a: Sym, b: Sym) -> Sym:
    """Multiply two Syms, eliding the multiplicative identity."""
    if b.expr == "1" or (b.known() and b.value == 1.0):
        return a
    if a.expr == "1" or (a.known() and a.value == 1.0):
        return b
    return sym_bin("*", a, b)


class DataflowProblem:
    """One monotone analysis: direction, boundary, and transfer.

    Subclasses set ``direction`` to ``"forward"`` or ``"backward"`` and
    implement :meth:`transfer`.  Join is set union (a may-analysis); a
    must-analysis would override :meth:`join`, which the solver calls
    through this interface only.
    """

    direction: str = "forward"

    def boundary(self, cfg: CFG) -> FactSet:
        """Facts holding at the entry (or exit, if backward)."""
        return frozenset()

    def join(self, facts: list[FactSet]) -> FactSet:
        """Combine predecessor (successor) outputs; default is union."""
        out: frozenset = frozenset()
        for f in facts:
            out |= f
        return out

    def transfer(self, block_stmts: list[ast.stmt],
                 facts: FactSet) -> FactSet:
        """Push a fact set through one basic block."""
        raise NotImplementedError


def solve(cfg: CFG, problem: DataflowProblem,
          ) -> dict[int, tuple[FactSet, FactSet]]:
    """Worklist fixpoint; returns ``{block: (facts_in, facts_out)}``.

    ``facts_in`` is the join over the relevant neighbours and
    ``facts_out`` the transferred set, in *analysis* direction (for a
    backward problem, ``facts_in`` holds after the block in program
    order).
    """
    forward = problem.direction == "forward"
    start = cfg.entry if forward else cfg.exit
    ins: dict[int, FactSet] = {b.index: frozenset() for b in cfg.blocks}
    outs: dict[int, FactSet] = {b.index: frozenset() for b in cfg.blocks}

    worklist = sorted(b.index for b in cfg.blocks)
    pending = set(worklist)
    while worklist:
        idx = worklist.pop(0)
        pending.discard(idx)
        block = cfg.blocks[idx]
        sources = block.preds if forward else block.succs
        joined = problem.join([outs[s] for s in sources])
        if idx == start:
            joined |= problem.boundary(cfg)
        stmts = block.stmts if forward else list(reversed(block.stmts))
        ins[idx] = joined
        new_out = problem.transfer(stmts, joined)
        if new_out != outs[idx]:
            outs[idx] = new_out
            targets = block.succs if forward else block.preds
            for t in sorted(targets):
                if t not in pending:
                    pending.add(t)
                    worklist.append(t)
    return {i: (ins[i], outs[i]) for i in ins}


# ---------------------------------------------------------------------------
# shallow def/use extraction (compound statements own only their headers)
# ---------------------------------------------------------------------------


def _target_names(target: ast.expr) -> list[str]:
    names = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    return names


def stmt_defs(stmt: ast.stmt) -> list[str]:
    """Names a statement (shallowly) binds."""
    if isinstance(stmt, ast.Assign):
        out: list[str] = []
        for t in stmt.targets:
            out.extend(_target_names(t))
        return out
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(stmt.target, ast.Name):
            return [stmt.target.id]
        return []
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _target_names(stmt.target)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out = []
        for item in stmt.items:
            if item.optional_vars is not None:
                out.extend(_target_names(item.optional_vars))
        return out
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in stmt.names]
    if isinstance(stmt, ast.Match):
        # capture-pattern bindings are per-case, but the Match header is
        # the only statement the shallow CFG keeps — attach them there
        # (a may-definition reaching every case block)
        return _pattern_names(stmt)
    return []


def _pattern_names(stmt: ast.Match) -> list[str]:
    """Names any case pattern of a ``match`` statement may bind."""
    names: list[str] = []
    for case in stmt.cases:
        for node in ast.walk(case.pattern):
            if isinstance(node, ast.MatchAs) and node.name is not None:
                names.append(node.name)
            elif isinstance(node, ast.MatchStar) and node.name is not None:
                names.append(node.name)
            elif isinstance(node, ast.MatchMapping) and node.rest is not None:
                names.append(node.rest)
    return names


def _expr_uses(expr: ast.expr | None) -> list[str]:
    if expr is None:
        return []
    return [n.id for n in ast.walk(expr)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


def stmt_uses(stmt: ast.stmt) -> list[str]:
    """Names a statement (shallowly) reads."""
    if isinstance(stmt, ast.Assign):
        return _expr_uses(stmt.value)
    if isinstance(stmt, ast.AugAssign):
        uses = _expr_uses(stmt.value)
        if isinstance(stmt.target, ast.Name):
            uses.append(stmt.target.id)
        return uses
    if isinstance(stmt, ast.AnnAssign):
        return _expr_uses(stmt.value)
    if isinstance(stmt, ast.If):
        return _expr_uses(stmt.test)
    if isinstance(stmt, ast.While):
        return _expr_uses(stmt.test)
    if isinstance(stmt, ast.Match):
        # the subject plus anything the patterns and guards compare
        # against; case *bodies* live in their own CFG blocks
        out = _expr_uses(stmt.subject)
        for case in stmt.cases:
            for node in ast.walk(case.pattern):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    out.append(node.id)
            out.extend(_expr_uses(case.guard))
        return out
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _expr_uses(stmt.iter)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[str] = []
        for item in stmt.items:
            out.extend(_expr_uses(item.context_expr))
        return out
    if isinstance(stmt, (ast.Return, ast.Expr)):
        return _expr_uses(stmt.value)
    if isinstance(stmt, ast.Raise):
        return _expr_uses(stmt.exc) + _expr_uses(stmt.cause)
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef, ast.Import, ast.ImportFrom,
                         ast.Pass, ast.Break, ast.Continue, ast.Global,
                         ast.Nonlocal)):
        return []
    if isinstance(stmt, (ast.Assert, ast.Delete)):
        out = []
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append(node.id)
        return out
    # default: every loaded name anywhere in the statement
    return [n.id for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


class ReachingDefinitions(DataflowProblem):
    """Forward-may: which ``(name, line)`` definitions reach a point."""

    direction = "forward"

    def boundary(self, cfg: CFG) -> FactSet:
        # parameters are definitions at line 0 of the function
        args = cfg.func.args
        params = [a.arg for a in
                  args.posonlyargs + args.args + args.kwonlyargs]
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.append(extra.arg)
        return frozenset((p, 0) for p in params)

    def transfer(self, block_stmts: list[ast.stmt],
                 facts: FactSet) -> FactSet:
        current = set(facts)
        for stmt in block_stmts:
            for name in stmt_defs(stmt):
                current = {f for f in current if f[0] != name}
                current.add((name, stmt.lineno))
        return frozenset(current)


class Liveness(DataflowProblem):
    """Backward-may: which names are live (read later) at a point."""

    direction = "backward"

    def transfer(self, block_stmts: list[ast.stmt],
                 facts: FactSet) -> FactSet:
        # block_stmts arrive reversed (analysis order) from the solver
        live = set(facts)
        for stmt in block_stmts:
            for name in stmt_defs(stmt):
                live.discard(name)
            live.update(stmt_uses(stmt))
        return frozenset(live)


# ---------------------------------------------------------------------------
# loop-nest structure + trip-count inference
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Loop:
    """One loop in a function's nest tree."""

    node: ast.While | ast.For
    line: int
    kind: str            # "for" | "while"
    bounded: bool        # False only for while-loops
    trip: Sym | None     # resolved trip count when inferable
    depth: int
    children: list[Loop] = dataclasses.field(default_factory=list)


Evaluator = _t.Callable[[ast.expr], Sym | None]


def _const_evaluator(expr: ast.expr) -> Sym | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        return Sym(repr(expr.value), float(expr.value))
    if (isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub)
            and isinstance(expr.operand, ast.Constant)
            and isinstance(expr.operand.value, (int, float))):
        return Sym(f"-{expr.operand.value!r}", -float(expr.operand.value))
    return None


def _range_trip(call: ast.Call, evaluate: Evaluator) -> Sym | None:
    args = [evaluate(a) for a in call.args]
    if any(a is None for a in args):
        return None
    syms = _t.cast("list[Sym]", args)
    if len(syms) == 1:
        return syms[0]
    if len(syms) == 2:
        lo, hi = syms
        value = (hi.value - lo.value
                 if lo.known() and hi.known() else None)
        return Sym(f"({hi.expr} - {lo.expr})", value)
    if len(syms) == 3:
        lo, hi, step = syms
        if lo.known() and hi.known() and step.known() and step.value:
            trips = max(0.0, -(-(hi.value - lo.value) // step.value))
            return Sym(f"len(range({lo.expr}, {hi.expr}, {step.expr}))",
                       trips)
        return None
    return None


def _loop_trip(node: ast.While | ast.For,
               evaluate: Evaluator) -> tuple[bool, Sym | None]:
    if isinstance(node, ast.While):
        return False, None
    it = node.iter
    if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id in {"range", "enumerate"}):
        if it.func.id == "enumerate" and it.args:
            inner = it.args[0]
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "range"):
                return True, _range_trip(inner, evaluate)
            return True, None
        if it.func.id == "range":
            return True, _range_trip(it, evaluate)
    # a for-loop over any other iterable is bounded with unknown trip
    return True, None


def loop_nests(func: ast.FunctionDef | ast.AsyncFunctionDef,
               evaluate: Evaluator | None = None) -> list[Loop]:
    """Return the tree of loops in ``func`` with trip counts inferred.

    ``evaluate`` resolves bound expressions to :class:`Sym`; the default
    handles numeric literals only (the traffic analyzer passes its
    config-aware evaluator).  Nested function bodies are not descended
    into — they have their own nests.
    """
    return _nest(func.body, 0, evaluate or _const_evaluator)


def _nest(stmts: _t.Sequence[ast.stmt], depth: int,
          evaluate: Evaluator) -> list[Loop]:
    """The loops of ``stmts`` at nesting ``depth``, children filled in.

    Module level rather than a closure inside :func:`loop_nests`: a
    self-referencing nested function is a function<->cell cycle that
    only the garbage collector frees.
    """
    loops: list[Loop] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            node = _t.cast("ast.While | ast.For", stmt)
            bounded, trip = _loop_trip(node, evaluate)
            loop = Loop(
                node=node, line=stmt.lineno,
                kind="while" if isinstance(stmt, ast.While) else "for",
                bounded=bounded, trip=trip, depth=depth)
            loop.children = _nest(stmt.body, depth + 1, evaluate)
            loops.append(loop)
            loops.extend(_nest(stmt.orelse, depth, evaluate))
        elif isinstance(stmt, ast.If):
            loops.extend(_nest(stmt.body, depth, evaluate))
            loops.extend(_nest(stmt.orelse, depth, evaluate))
        elif isinstance(stmt, ast.Try):
            loops.extend(_nest(stmt.body, depth, evaluate))
            for handler in stmt.handlers:
                loops.extend(_nest(handler.body, depth, evaluate))
            loops.extend(_nest(stmt.orelse, depth, evaluate))
            loops.extend(_nest(stmt.finalbody, depth, evaluate))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            loops.extend(_nest(stmt.body, depth, evaluate))
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                loops.extend(_nest(case.body, depth, evaluate))
    return loops


def iter_loops(loops: list[Loop]) -> _t.Iterator[Loop]:
    """Depth-first iterator over a loop-nest tree."""
    for loop in loops:
        yield loop
        yield from iter_loops(loop.children)
