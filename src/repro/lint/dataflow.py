"""Loop nests and symbolic values for the bwlint traffic analysis.

:func:`loop_nests` walks one function's loop tree and infers each loop's
trip count; :mod:`repro.lint.traffic`, :mod:`repro.lint.phases` and
:mod:`repro.lint.callgraph` multiply those trips into their byte-volume
estimates.  ``while`` loops are *unbounded* (trip ``None``), which is
exactly what rule ``REP305`` reports when one wraps a kernel launch.

Symbolic values are :class:`Sym` pairs — a human-readable expression
string plus an optional resolved float — forming the constant half of
the traffic analyzer's domain.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

__all__ = [
    "Sym", "sym_add", "sym_bin", "sym_mul",
    "Loop", "loop_nests", "iter_loops",
]


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
